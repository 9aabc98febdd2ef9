"""The benchmark's own self-tests, run as the benchmark runs them.

`magbench/` imports magrad names directly (`mu_ab`, `eval_lambda`,
`enumerate_quasimonomials`, `kernels.theta_ab`, `umqnorm.simplex_min`,
`bch.LambdaPoly`, ...), so a library change that drops or renames one of
them fails here rather than only when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "magbench" / "selftest.py"


def test_magbench_selftest_passes():
    res = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
