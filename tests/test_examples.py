"""Smoke tests: every example script runs to completion on small inputs.

Examples are part of the public deliverable; these tests keep them from
rotting as the library evolves. Heavy CLI flags are overridden where the
script supports them.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestExamples:
    def test_quickstart(self):
        proc = _run("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "matched 20 tasks" in proc.stdout

    def test_privacy_audit(self):
        proc = _run("privacy_audit.py")
        assert proc.returncode == 0, proc.stderr
        assert "holds=True" in proc.stdout
        assert "ok=True" in proc.stdout

    def test_ride_hailing_small(self):
        proc = _run("ride_hailing.py", "--scale", "0.05", "--workers", "400")
        assert proc.returncode == 0, proc.stderr
        assert "Lap-GR" in proc.stdout
        assert "km" in proc.stdout

    def test_delivery_case_study_small(self):
        proc = _run(
            "delivery_case_study.py",
            "--orders", "120", "--couriers", "200", "--repeats", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Prob" in proc.stdout

    def test_scalability_demo_small(self):
        proc = _run("scalability_demo.py", "--sizes", "500", "1000")
        assert proc.returncode == 0, proc.stderr
        assert "per task" in proc.stdout

    def test_dynamic_fleet(self):
        proc = _run("dynamic_fleet.py")
        assert proc.returncode == 0, proc.stderr
        assert "budget cap" in proc.stdout

    def test_attack_evaluation(self):
        proc = _run("attack_evaluation.py")
        assert proc.returncode == 0, proc.stderr
        assert "top-1" in proc.stdout

    def test_mechanism_explorer(self):
        proc = _run("mechanism_explorer.py")
        assert proc.returncode == 0, proc.stderr
        assert "tree mean" in proc.stdout

    def test_poi_predefined_points(self):
        proc = _run("poi_predefined_points.py")
        assert proc.returncode == 0, proc.stderr
        assert "POI tree" in proc.stdout

    def test_remote_worker_small(self):
        proc = _run("remote_worker.py", "--workers", "200", "--tasks", "100")
        assert proc.returncode == 0, proc.stderr
        assert "1 failover(s)" in proc.stdout
        assert "PARITY OK" in proc.stdout
        assert "cell splits=1" in proc.stdout

    def test_all_examples_have_docstrings_and_main(self):
        for script in sorted(EXAMPLES.glob("*.py")):
            text = script.read_text()
            assert text.startswith('"""'), f"{script.name} lacks a docstring"
            assert '__name__ == "__main__"' in text, (
                f"{script.name} lacks a main guard"
            )
