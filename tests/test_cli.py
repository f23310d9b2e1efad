import csv
import io
import json

import pytest

from tripmaps import claims, maps
from tripmaps.cli import main
from tripmaps.errors import DigitNotFound, EvaluationSingularity, NonConvergent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out: str):
    return list(csv.DictReader(io.StringIO(out)))


def test_list_triples(capsys):
    code, out, _ = run(capsys, "list-triples")
    rows = rows_of(out)
    assert code == 0 and len(rows) == 108
    assert sum(r["banach"] == "True" for r in rows) == 47
    assert sum(r["eigenfunction"] == "True" for r in rows) == 18
    assert sum(r["hilbert"] == "True" for r in rows) == 44
    assert sum(r["density"] == "True" for r in rows) == 18


def test_verify_branches_single(capsys):
    code, out, _ = run(capsys, "verify-branches", "--triple", "e,e,e",
                       "--n", "10", "--kmax", "5")
    rows = rows_of(out)
    assert code == 0 and len(rows) == 1
    assert float(rows[0]["max_roundtrip_err"]) < 1e-10


def test_verify_branches_bad_triple(capsys):
    code, _, err = run(capsys, "verify-branches", "--triple", "e,e,132")
    assert code == 2
    assert "unsupported triple" in err


def test_eigen_single_and_missing(capsys):
    code, out, _ = run(capsys, "eigen", "--triple", "12,13,12")
    rows = rows_of(out)
    assert code == 0 and len(rows) == 1
    assert float(rows[0]["max_rel_residual"]) < 1e-8
    code, *_ = run(capsys, "eigen", "--triple", "e,12,e")
    assert code == 2


def test_gk_with_simulation(capsys):
    code, out, _ = run(capsys, "gk", "--triple", "e,23,e", "--kmax", "3",
                       "--simulate", "--n", "20000", "--seed", "7")
    rows = rows_of(out)
    assert code == 0 and len(rows) == 4
    assert abs(float(rows[0]["p_theoretical"]) - 0.5) < 1e-7
    assert abs(float(rows[0]["p_empirical"]) - 0.5) < 0.02


def test_gk_simulate_reaches_deep_digits(capsys):
    # this orbit meets a digit near 5e8 at the y = 0 edge
    code, *_ = run(capsys, "gk", "--triple", "12,13,12", "--kmax", "2",
                   "--simulate", "--n", "20000", "--seed", "3")
    assert code in (0, 1)


def test_gk_simulate_gate_allows_for_correlation(capsys):
    # successive e,23,e digits are correlated: p_empirical(0) is 6.2
    # binomial sigmas from 1/2 at this seed, within 5 batch-means sigmas
    code, out, _ = run(capsys, "gk", "--triple", "e,23,e", "--kmax", "2",
                       "--simulate", "--n", "100000", "--seed", "22")
    rows = rows_of(out)
    assert code == 0
    binomial = (0.25 / 100000) ** 0.5
    assert float(rows[0]["stderr"]) > binomial


def test_gk_no_closed_form(capsys):
    code, out, _ = run(capsys, "gk", "--triple", "12,12,12", "--kmax", "2")
    rows = rows_of(out)
    assert code == 0
    assert rows[0]["p_closed"] == ""
    assert 0.0 < float(rows[0]["p_theoretical"]) < 1.0


def test_gk_untabulated(capsys):
    code, *_ = run(capsys, "gk", "--triple", "e,12,e")
    assert code == 2


def test_sum_bounds_single(capsys):
    code, out, _ = run(capsys, "sum-bounds", "--triple", "13,23,123")
    rows = rows_of(out)
    assert code == 0 and rows[0]["all_converged"] == "True"
    code, *_ = run(capsys, "sum-bounds", "--triple", "e,e,23")
    assert code == 2


def test_hilbert_single_json(capsys):
    code, out, _ = run(capsys, "hilbert", "--triple", "123,132,132",
                       "--format", "json")
    data = json.loads(out)
    assert code == 0 and len(data) == 1
    assert float(data[0]["rel_gap"]) < 1e-4
    assert data[0]["pass"] is True


def test_hilbert_unsupported(capsys):
    code, *_ = run(capsys, "hilbert", "--triple", "e,12,23")
    assert code == 2


def test_orbit_dump(capsys):
    code, out, _ = run(capsys, "orbit", "--triple", "e,e,e", "--n", "8",
                       "--start", "0.573,0.211")
    rows = rows_of(out)
    assert code == 0 and len(rows) >= 2
    assert rows[0]["step"] == "0"


@pytest.mark.parametrize("triple, start, steps, error", [
    # (0.6, 0.3) reaches the diagonal in two steps under (e,e,e)
    ("e,e,e", "0.6,0.3", 1, "BoundaryHit"),
    # this orbit comes within 2e-12 of the vertex (0, 0) at step 11, where
    # hits of one digit sit far apart
    ("e,e,12", "0.6123,0.2871", 11, "AmbiguousDigit"),
])
def test_orbit_stops_on_boundary_and_vertex(capsys, triple, start, steps, error):
    code, out, err = run(capsys, "orbit", "--triple", triple, "--n", "30", "--start", start)
    rows = rows_of(out)
    assert code == 0 and [r["step"] for r in rows] == [str(i) for i in range(steps + 1)]
    assert err.startswith(f"orbit stopped at step {steps + 1}: {error}: ")


@pytest.mark.parametrize("error", [DigitNotFound, EvaluationSingularity])
def test_orbit_other_errors_exit_2(capsys, monkeypatch, error):
    real, calls = maps.step, []

    def step(t, p):
        calls.append(p)
        if len(calls) == 3:
            raise error("table fault")
        return real(t, p)

    monkeypatch.setattr(maps, "step", step)
    code, out, err = run(capsys, "orbit", "--triple", "e,e,e", "--n", "8",
                         "--start", "0.573,0.211")
    assert code == 2 and out == "" and err == "error: table fault\n"


def test_determinism_and_out_file(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code = main(["gk", "--triple", "e,e,e", "--kmax", "2", "--simulate",
                     "--n", "5000", "--seed", "3", "--out", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"triple": "e,e,e", "kmax": 1}))
    # config supplies triple/kmax; flag overrides kmax
    code, out, _ = run(capsys, "gk", "--config", str(cfg), "--kmax", "2")
    rows = rows_of(out)
    assert code == 0
    assert len(rows) == 3 and rows[0]["triple"] == "e,e,e"


def test_bad_format_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["gk", "--format", "yaml"])


@pytest.mark.parametrize("verb", ["gk", "verify-branches"])
def test_negative_kmax_rejected(capsys, verb):
    # a negative kmax would check nothing (gk) or fail inside numpy
    # (verify-branches): both verbs refuse it before any work
    code, out, err = run(capsys, verb, "--triple", "e,e,e", "--kmax", "-1")
    assert code == 2 and out == ""
    assert "kmax must be non-negative" in err


@pytest.mark.parametrize("verb", ["eigen", "sum-bounds", "gk"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
def test_tol_must_be_positive_and_finite(capsys, verb, tol):
    # a nan tol passed a tol <= 0 test: eigen then doubled K to k_max, and
    # gk --tol inf passed every closed-form gate
    code, out, err = run(capsys, verb, "--triple", "e,e,e", f"--tol={tol}")
    assert code == 2 and out == ""
    assert "tol must be positive and finite" in err


@pytest.mark.parametrize("content", ["[1, 2]", '"seed n"', "3", "null"])
def test_config_must_hold_an_object(tmp_path, capsys, content):
    # a list was ignored, and a string ended in a TypeError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run(capsys, "gk", "--triple", "e,e,e", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "must hold a JSON object" in err


@pytest.mark.parametrize("start", ["0.5", "0.5,0.2,0.1", "a,b"])
def test_orbit_start_takes_x_y(capsys, start):
    code, out, err = run(capsys, "orbit", "--triple", "e,e,e", "--start", start)
    assert code == 2 and out == ""
    assert err == f"error: --start takes x,y, not {start!r}\n"


def test_verify_rows_and_status(capsys, monkeypatch):
    passing = claims.Claim("passing", 1e-6, lambda: 1e-9)
    failing = claims.Claim("failing", 1e-6, lambda: 2e-6)
    monkeypatch.setattr(claims, "CLAIMS", [passing, failing])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert out.splitlines()[0] == "claim,value,tol,pass"
    rows = rows_of(out)
    assert [(r["claim"], r["pass"]) for r in rows] == [("passing", "True"),
                                                       ("failing", "False")]
    assert float(rows[1]["value"]) == 2e-6 and float(rows[1]["tol"]) == 1e-6

    monkeypatch.setattr(claims, "CLAIMS", [passing])
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"claim": "passing", "value": 1e-9, "tol": 1e-6,
                                "pass": True}]


def test_verify_claim_error(capsys, monkeypatch):
    def stalls() -> float:
        raise NonConvergent("stalled")

    monkeypatch.setattr(claims, "CLAIMS", [claims.Claim("stalls", 1.0, stalls)])
    code, out, err = run(capsys, "verify")
    assert code == 2 and out == "" and "stalled" in err
