"""Suppression mechanics: inline disables absorb findings; stale ones
surface as RK001.  Suppressions anchor to the whole logical statement:
a trailing disable on any continuation line of a multi-line statement
absorbs findings reported at the statement head, and a disable above a
decorated function covers findings on the ``def`` line itself."""

import random


def sanctioned_stdlib_use(items):
    # A justified, documented exception: the disable comment absorbs
    # the RK101 that would otherwise fire on this line.
    return random.choice(items)  # lint: disable=RK101 -- fixture: sanctioned

def no_violation_here(items):
    return sorted(items)  # lint: disable=RK103 -- stale  # expect: RK001


def multiline_trailing_disable(items):
    # RK101 reports at the statement head (the `chosen = ...` line);
    # the disable sits on the closing-paren line two lines later and
    # still absorbs it, because both lines belong to one statement.
    chosen = random.sample(
        items,
        2,
    )  # lint: disable=RK101 -- fixture: multi-line statement anchor
    return chosen


def multiline_head_disable(items):
    # The mirror case: disable on the head line, offending call lowered
    # onto a continuation line.
    return random.choices(  # lint: disable=RK101 -- fixture: head anchor
        items,
        k=3,
    )


def _identity(fn):
    return fn


# lint: disable=RK101 -- fixture: decorated def, disable above decorator
@_identity
def decorated_random_default(coin=random.random()):
    return coin


def multiline_stale_disable(items):
    # A statement-anchored suppression that matches nothing is still
    # reported as stale, at the line the comment sits on.
    return sorted(
        items,
    )  # lint: disable=RK102 -- fixture: stale on continuation  # expect: RK001
