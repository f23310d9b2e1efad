import csv
import hashlib
import io
import json
import math

import pytest

from tripmaps import claims, cli, gausskuzmin, maps
from tripmaps.cli import main
from tripmaps.domain import PermutationTriple
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
    # these walkers meet digits above 1e5.
    # 12,13,12 is not ergodic, so its Monte Carlo rows are not gated and
    # only the exit code is checked; test_walker_counts_deep_digit_once in
    # tests/test_gausskuzmin.py checks a digit beyond 2**20
    code, *_ = run(capsys, "gk", "--triple", "12,13,12", "--kmax", "2",
                   "--simulate", "--n", "20000", "--seed", "3")
    assert code in (0, 1)


def test_gk_simulate_gate_allows_for_correlation(capsys):
    # the gate's sigma is the larger of the binomial and the batch-means
    # standard errors, the latter allowing for correlated digits
    n, seed = 100000, 22
    code, out, _ = run(capsys, "gk", "--triple", "e,23,e", "--kmax", "2",
                       "--simulate", "--n", str(n), "--seed", str(seed))
    rows = rows_of(out)
    assert code == 0
    stats = gausskuzmin.empirical_digits(PermutationTriple("e", "23", "e"), n, seed)
    for row in rows:
        p = float(row["p_theoretical"])
        binomial = math.sqrt(p * (1 - p) / n)
        assert float(row["stderr"]) == max(binomial, stats.batch_stderr(int(row["k"])))


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


def test_parser_is_built_once(capsys):
    # main reuses one parser; a rejected flag leaves it as it was
    first = run(capsys, "eigen", "--triple", "e,e,e", "--format", "json")
    for argv in (["eigen", "--bogus"], ["eigen", "--format", "yaml"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
    assert run(capsys, "eigen", "--triple", "e,e,e", "--format", "json") == first
    assert cli._build_parser() is cli._build_parser()


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


@pytest.mark.parametrize("verb, content, message", [
    # these ended in a TypeError and an AttributeError traceback
    ("gk", '{"kmax": [1]}', "kmax must be int, not list"),
    ("orbit", '{"start": 5}', "start must be str, not int"),
], ids=["kmax-list", "start-int"])
def test_config_value_must_match_its_setting(tmp_path, capsys, verb, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run(capsys, verb, "--triple", "e,e,e", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: --config {cfg}: {message}\n"


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


_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize("triple, start, out_sha, err_sha", [
    # parity-free rows: 200 steps each, digits up to about 1e11 from the
    # second start
    ("e,e,e", "0.573,0.211",
     "5b841f7f0183472e9c1da12fe4b906fd6169dec08a0abed2f726bea9dab65127", _EMPTY),
    ("e,e,e", "0.8123,0.4567",
     "0b8291be0ed45dac4ae11cd12330436e675e754253a88c49a93c109338f90ff3", _EMPTY),
    ("e,23,e", "0.573,0.211",
     "bb74b7aaf09e09e0ee4225554c41544425646b64e31e92a49d3bd4b308be7bb1", _EMPTY),
    ("e,23,e", "0.8123,0.4567",
     "97e316c3472b7d4d1f95125d7f6b6e18a5a0f9d3e85d942a2ad7d11df91efcf4", _EMPTY),
    ("12,13,12", "0.573,0.211",
     "780b1c2045dca8b7dab81e8cd4ef072611e7adcddd2f861b1332cb0a56374bc7", _EMPTY),
    ("12,13,12", "0.8123,0.4567",
     "c931ba93eb1c96b340beec136d275a043a4f5b89349e8905001e727f54fb998c", _EMPTY),
    # a parity row, stopped next to a vertex at step 12
    ("e,e,12", "0.6123,0.2871",
     "d239a9df0f51bc5fcbadcdaed31bd31be8819337f3b84b0889bf1adac822752b",
     "8e7592fb1936b26ba52b26c07a8d01906f5a4aa36ba722bd95e32db54a6b6d4f"),
])
def test_orbit_rows_are_pinned(capsys, triple, start, out_sha, err_sha):
    # every digit and image of these orbits, byte for byte: a change to the
    # digit path that moves one step moves a digest
    code, out, err = run(capsys, "orbit", "--triple", triple, "--n", "200", "--start", start)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha
