"""A small process that starts the command-line jobs.

A child's ``ru_maxrss`` starts from the resident set of the process
that spawned it (the kernel folds the pre-exec image into the child's
high-water mark), so jobs started from the harness itself — numpy,
the input graph and the verifier loaded — could never read lower than
the harness.  This launcher imports only the standard library, stays
around 10 MB, and so reports the jobs' own peak.

Protocol: one JSON request per line on stdin (``argv``, ``env``,
``cwd``), one JSON reply per line on stdout; exits when stdin closes.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        done = subprocess.run(
            request["argv"],
            env=request["env"],
            cwd=request["cwd"],
            capture_output=True,
            text=True,
            check=False,
        )
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        reply = {
            "returncode": done.returncode,
            "stdout": done.stdout,
            "stderr": done.stderr,
            "children_maxrss_kb": children.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
