"""The benchmark's workloads can still build their inputs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_sets_up(tmp_path):
    # each set-up generates its inputs through the public API (random
    # formulas, models, derivations), so a change to the syntax core that
    # breaks input generation fails here rather than in a benchmark run
    code = (
        "import sys; from pathlib import Path; "
        "sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "from workloads import WORKLOADS; "
        "[print(name, len(setup(1, Path(sys.argv[3])))) for name, setup in WORKLOADS.items()]"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "src"), str(ROOT / "bench"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counts = dict(line.split() for line in done.stdout.splitlines())
    assert set(counts) == {"check", "decide", "game", "prove"}
    assert all(int(ops) > 0 for ops in counts.values())
