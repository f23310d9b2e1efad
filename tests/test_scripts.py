import csv
import importlib.util
import io
import math
from pathlib import Path

from tripmaps.domain import TrianglePoint

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_identity_sweep_writes_valid_csv():
    sweep = _load("kernel_identity_sweep").sweep
    out = io.StringIO()
    worst = sweep([("e", "23", "e")], TrianglePoint(0.6, 0.3), 0, False, out)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == 1
    assert rows[0]["triple"] == "e,23,e"
    assert set(rows[0]) == {"triple", "lhs", "rhs", "rel_gap"}
    lhs, rhs = float(rows[0]["lhs"]), float(rows[0]["rhs"])
    assert abs(lhs - rhs) < 1e-4 * abs(lhs)
    assert math.isclose(worst, float(rows[0]["rel_gap"]), rel_tol=1e-3)
