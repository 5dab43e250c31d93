"""End-to-end tests of the ``scripts/run_eval.py`` CLI (tiny budget).

Drives the real entry point in a subprocess — the exact invocation CI uses,
just at the ``tiny`` budget — and asserts the four behaviours the tier-2
gate depends on: a missing baseline is an error under ``--check``,
``--update-baseline`` pins the current numbers, a ROM-labelled run is
compared against the full-order bands, and a perturbed baseline fails the
build with a drift diagnosis.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "run_eval.py"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--budget", "tiny", "--num-workers", "0", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=600,
    )


@pytest.fixture(scope="module")
def cli_dirs(tmp_path_factory):
    """A private workdir + baseline dir for the CLI run."""
    root = tmp_path_factory.mktemp("run-eval-cli")
    return root / "workdir", root / "baselines"


@pytest.mark.slow
class TestRunEvalCli:
    def test_full_gate_lifecycle(self, cli_dirs):
        workdir, baselines = cli_dirs
        base_args = ("--workdir", str(workdir), "--baselines", str(baselines))

        # 1. --check with no baseline: hard error (CI must not silently pass).
        missing = run_cli(*base_args, "--check")
        assert missing.returncode == 1
        assert "no baseline" in missing.stdout

        # 2. Without --check a missing baseline is only a warning.
        warned = run_cli(*base_args)
        assert warned.returncode == 0
        assert "WARNING" in warned.stdout

        # 3. Pin the baseline; the campaign resumes from its artefacts.
        pinned = run_cli(*base_args, "--update-baseline")
        assert pinned.returncode == 0
        baseline_path = baselines / "tiny.json"
        assert baseline_path.exists()
        assert "cross-design evaluation" in pinned.stdout  # the report table
        assert "scenario sweep" in pinned.stdout

        # 4. Gate passes against the freshly pinned numbers.
        gated = run_cli(*base_args, "--check")
        assert gated.returncode == 0, gated.stdout + gated.stderr
        assert "within tolerance" in gated.stdout

        # 5. A ROM-labelled campaign is judged against the same full-order
        #    bands: the compare reaches them instead of refusing the hash.
        rom = run_cli(
            "--workdir", str(workdir.parent / "workdir-rom"),
            "--baselines", str(baselines),
            "--solver-mode", "rom",
            "--check",
        )
        assert "different campaign configuration" not in rom.stdout + rom.stderr
        assert "baseline 'tiny':" in rom.stdout, rom.stdout + rom.stderr

        # 6. Degrade the stored baseline (keeping its integrity hash valid):
        #    the gate must fail and name the drifted metric.
        payload = json.loads(baseline_path.read_text())
        label = next(iter(payload["metrics"]))
        payload["metrics"][label]["mean_ae_mv"] /= 3.0
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.eval import metrics_content_hash

        payload["content_hash"] = metrics_content_hash(payload["metrics"])
        baseline_path.write_text(json.dumps(payload))
        drifted = run_cli(*base_args, "--check")
        assert drifted.returncode == 1
        assert "DRIFT" in drifted.stdout
        assert "mean_ae_mv" in drifted.stdout
