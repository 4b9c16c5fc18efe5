import json

import compare
from kkbench.spec import MetricSpec

LATENCY = MetricSpec("latency_p50_ms", "ms", "lower", bound=0.10)
RATE = MetricSpec("steps_per_s", "steps/s", "higher", bound=0.10)
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def scaled(factor):
    return [value * factor for value in STEADY]


def test_verdicts_follow_the_bound_and_the_direction():
    assert compare.verdict(LATENCY, STEADY, scaled(1.2)) == "regressed"
    assert compare.verdict(LATENCY, STEADY, scaled(0.8)) == "improved"
    assert compare.verdict(LATENCY, STEADY, scaled(1.05)) == "unchanged"
    assert compare.verdict(RATE, STEADY, scaled(0.8)) == "regressed"
    assert compare.verdict(RATE, STEADY, scaled(1.2)) == "improved"


def test_noise_wider_than_the_bound_is_unresolved_unless_runs_separate():
    noisy = [80.0, 120.0, 95.0, 130.0, 75.0]
    assert compare.verdict(LATENCY, noisy, [v * 1.05 for v in noisy]) == "unresolved"
    # Every run of B is slower than every run of A: decided despite the noise.
    assert compare.verdict(LATENCY, noisy, [v * 2.0 for v in noisy]) == "regressed"


def test_compares_two_run_files(tmp_path, capsys):
    def runs(factor):
        return {
            "runs": [
                {
                    "workload": "node2vec-loop",
                    "metrics": {
                        "steps_per_s": {"value": value * factor, "unit": "steps/s"},
                        "core.loop_s": {"value": 2.0 / factor, "unit": "s"},
                    },
                }
                for value in STEADY
            ]
        }

    base, slow = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(runs(1.0)))
    slow.write_text(json.dumps(runs(0.5)))
    status = compare.main([str(base), str(slow), "--layers", str(base), str(slow)])
    printed = capsys.readouterr().out
    assert status == 1
    assert "regressed" in printed and "0.500" in printed
    assert "core.loop_s" in printed and "+100.0%" in printed
    assert compare.main([str(base), str(base)]) == 0
