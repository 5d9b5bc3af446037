"""Runnable demos: each one runs and prints a passing verdict."""

import os
import runpy
import shutil

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")

# The verdict line each demo prints, and how many times.
VERDICTS = {
    # 4 meshes (12x10 and 5^3, uniform and graded) x 3 identities, larger
    # than the test fixtures
    "identity_battery.py": ("[PASS]", 12),
    # one line per gate of SchemeConfig.gates
    "swirling_patch.py": ("[PASS]", 4),
    "refinement_study.py": ("all factors >= 1.5: True", 1),
    "time_translates.py": ("slope above floor: True", 1),
}


@pytest.mark.parametrize("demo", VERDICTS)
def test_demo(demo, tmp_path, capsys):
    # a demo writes into out/ beside itself, so it runs from a copy
    script = tmp_path / demo
    shutil.copy(os.path.join(DEMOS, demo), script)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    verdict, count = VERDICTS[demo]
    assert out.count(verdict) == count, out
    assert "[FAIL]" not in out
