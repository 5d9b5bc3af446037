"""Runnable demos: the identity battery demo runs and every check passes."""

import os
import runpy

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def test_identity_battery_demo(capsys):
    # 4 meshes (12x10 and 5^3, uniform and graded) x 3 identities, larger
    # than the test fixtures; the demo writes no files
    runpy.run_path(os.path.join(DEMOS, "identity_battery.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 12
    assert "[FAIL]" not in out
