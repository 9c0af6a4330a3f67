"""CLI: corpus regression, determinism, round-trips, error codes."""

import json
import pathlib
import subprocess
import sys

import pytest

import jetres
from jetres.cli import main, run_job
from jetres.exactalg import MultiPoly, Q, VarContext
from jetres.polyparse import ParseError, UnknownVariableError, parse_poly

CORPUS = pathlib.Path(__file__).parent / "corpus"


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_jobs():
    return sorted(CORPUS.glob("job_*.json"))


@pytest.mark.parametrize("job_path", corpus_jobs(), ids=lambda p: p.stem)
def test_corpus_regression(job_path, tmp_path, capsys):
    job = load(job_path)
    out_path = tmp_path / "result.json"
    code = main([job["command"], "--job", str(job_path), "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    got = load(out_path)
    got.pop("elapsed_seconds", None)
    expected = load(CORPUS / ("expected_" + job_path.name[len("job_") :]))
    assert got == expected


def test_byte_determinism(tmp_path, capsys):
    job_path = CORPUS / "job_integral_n2k2.json"
    outs = []
    for i in range(2):
        out_path = tmp_path / f"r{i}.json"
        assert main(["integral", "--job", str(job_path), "--out", str(out_path)]) == 0
        capsys.readouterr()
        doc = load(out_path)
        doc.pop("elapsed_seconds", None)
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_parse_examples():
    ctx = VarContext(("z1", "z2", "h"))
    p = parse_poly("(u1 + 2*u2 + h)^3", ctx)
    z1 = MultiPoly.variable(ctx, "z1")
    z2 = MultiPoly.variable(ctx, "z2")
    h = MultiPoly.variable(ctx, "h")
    assert p == (z1 + 2 * z2 + h) ** 3
    p = parse_poly("u1^2*u2 - 1/2*h^3", ctx)
    assert p == z1**2 * z2 - Q(1, 2) * h**3
    with pytest.raises(UnknownVariableError):
        parse_poly("u1 + w", ctx)
    with pytest.raises(ParseError):
        parse_poly("2h", ctx)  # implicit multiplication is not allowed
    with pytest.raises(ParseError):
        parse_poly("u1^u2", ctx)
    with pytest.raises(ParseError):
        parse_poly("u1^(2)", ctx)
    with pytest.raises(ParseError):
        parse_poly("1/0", ctx)


def test_round_trip_serialization():
    ctx = VarContext(("z1", "z2", "h"))
    z1 = MultiPoly.variable(ctx, "z1")
    z2 = MultiPoly.variable(ctx, "z2")
    h = MultiPoly.variable(ctx, "h")
    for p in (
        (z1 + 2 * z2 + h) ** 3,
        z1**2 * z2 - Q(1, 2) * h**3,
        MultiPoly.zero(ctx),
        MultiPoly.const(ctx, Q(-7, 3)),
        -z1 + z2,
    ):
        text = p.to_text()
        assert parse_poly(text, ctx) == p
        assert parse_poly(text, ctx).to_text() == text


def test_unknown_variable_error_exit(tmp_path, capsys):
    code = main(["integral", "-n", "2", "-k", "2", "--polynomial", "u1*w"])
    err = capsys.readouterr().err
    assert code == 3
    doc = json.loads(err)
    assert doc["error"]["code"] == "unknown-variable"


def test_resource_cap_error(capsys):
    for argv in (
        ["fixed-points", "-n", "3", "-k", "2"],
        ["fibre-integral", "-n", "3", "-k", "2", "-P", "u1^2*u2^2", "--lambdas", "1,2,5"],
    ):
        code = main(argv + ["--max-points", "5"])
        err = capsys.readouterr().err
        assert code == 3
        assert json.loads(err)["error"]["code"] == "resource"


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-points", "-n", "2", "-k", "1", "--max-points", "0"],
        ["integral", "-n", "2", "-k", "2", "-P", "(u1+2*u2+h)^4", "--max-terms", "0"],
        ["fixed-points", "-n", "2", "-k", "1", "--max-points", "-5"],
    ],
    ids=["max-points-0", "max-terms-0", "max-points-negative"],
)
def test_caps_below_one_are_validation_errors(argv, capsys):
    code = main(argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert error["code"] == "validation"
    assert "at least 1" in error["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["diagnostics", "-n", "2", "--defect-cap", "-9"], "defect_cap"),
        (["diagnostics", "-n", "2", "--defect-cap", "-1"], "defect_cap"),
        (["fibre-integral", "-n", "2", "-k", "1", "-P", "u1", "--lambdas", "1,2,3"],
         "lambda values"),
    ],
    ids=["defect-cap-negative", "defect-cap-minus-one", "lambdas-length"],
)
def test_out_of_range_values_are_validation_errors(argv, message, capsys):
    code = main(argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert error["code"] == "validation"
    assert message in error["message"]


def test_missing_parameters(capsys):
    code = main(["integral", "-n", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "missing parameters" in json.loads(err)["error"]["message"]


def test_degenerate_lambdas_error(capsys):
    code = main(
        [
            "fibre-integral",
            "-n",
            "2",
            "-k",
            "1",
            "--polynomial",
            "u1",
            "--lambdas",
            "1,1",
        ]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err)["error"]["code"] == "degenerate"


def test_verify_flag_runs_dual_route(capsys):
    code = main(["integral", "-n", "2", "-k", "1", "--polynomial", "(u1+h)^3", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["verify"] == {"match": True, "method": "expand-vs-stepwise"}


def test_fibre_integral_residue_method(capsys):
    args = ["fibre-integral", "-n", "2", "-k", "2", "--polynomial", "u1*u2", "--lambdas", "1,3/2"]
    assert main(args + ["--method", "residue", "--verify"]) == 0
    doc_res = json.loads(capsys.readouterr().out)
    assert main(args + ["--method", "fixed-point"]) == 0
    doc_fp = json.loads(capsys.readouterr().out)
    assert doc_res["result"]["value"] == doc_fp["result"]["value"]
    assert doc_res["verify"] == {"match": True, "method": "dual-route"}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetres.cli", "ample-check", "--a", "9,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["classification"] == "relatively_ample"


def test_cli_imports_every_module():
    # a fresh interpreter: this process has imported modules the CLI may not
    package = pathlib.Path(jetres.__file__).parent
    modules = sorted(f"jetres.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); import jetres.cli; "
            f"print([m for m in {modules!r} if m not in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_pipe_leaves_stderr_empty():
    # the reader stops after one line, as `jetres fixed-points ... | head -1` does;
    # the document (729 points) is larger than a pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetres.cli", "fixed-points", "-n", "3", "-k", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_run_job_ggl_custom_config():
    doc = run_job(
        "ggl",
        {"n": 2, "a": [3, 1], "delta": "0", "bound": "1000"},
    )
    assert doc["result"]["p"]["text"]
    assert isinstance(doc["result"]["certificate"], bool)


@pytest.mark.parametrize(
    "argv, method",
    [
        (["fibre-integral", "-n", "2", "-k", "2", "-P", "u1*u2", "--lambdas", "1,3"], "dual-route"),
        (["integral", "-n", "2", "-k", "2", "-P", "(u1+2*u2+h)^4"], "expand-vs-stepwise"),
        (["residue", "--form", "z2^2/((z1)^2*(z1-z2)*(2*z1-z2))"], "expand-vs-stepwise"),
        (["ggl", "-n", "2", "--a", "3,1"], "coefficient-table-assembly"),
        (["euler-char", "-n", "2", "-k", "2", "--a", "6,2"], "budget-stability"),
    ],
    ids=["fibre-integral", "integral", "residue", "ggl", "euler-char"],
)
def test_verify_names_its_method(argv, method, capsys):
    assert main(argv + ["--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verify"] == {"match": True, "method": method}


@pytest.mark.parametrize(
    "argv", [["ggl", "-n", "2"], ["ggl", "-n", "2", "--a", "3,1"]], ids=["canonical", "custom"]
)
def test_ggl_verify_reuses_the_primary_intersection(argv, monkeypatch, capsys):
    calls = []
    real = jetres.ggl.integral_over_tower

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jetres.ggl, "integral_over_tower", counted)
    assert main(argv + ["--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["match"]
    assert len(calls) == 1


def test_verify_mismatch_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(
        "jetres.cli.residue_stepwise",
        lambda form, max_terms: MultiPoly.const(form.numerator.ctx, 7),
    )
    code = main(["residue", "--form", "z2^2/((z1)^2*(z1-z2)*(2*z1-z2))", "--verify"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "verify-mismatch"


def test_flags_are_echoed_as_parameters(tmp_path, capsys):
    argv = ["fibre-integral", "-n", "2", "-k", "1", "-P", "u1", "--a", "3,1", "--lambdas=-1,3/2"]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"] == {
        "a": [3, 1],
        "k": 1,
        "lambdas": ["-1", "3/2"],
        "n": 2,
        "polynomial": "u1",
    }
    assert "verify" not in doc


@pytest.mark.parametrize(
    "command, job",
    [
        ("ample-check", [1, 2]),
        ("ample-check", {"parameters": [1, 2]}),
        ("ample-check", {"parameters": {"a": 5}}),
        ("ggl", {"parameters": {"n": 2, "a": 5}}),
        ("euler-char", {"parameters": {"n": 2, "k": 1, "a": 5}}),
        ("fibre-integral", {"parameters": {"n": 2, "k": 1, "polynomial": "u1", "lambdas": 3}}),
        ("integral", {"parameters": {"n": [2], "k": 2, "polynomial": "u1^2*u2^2*h^2"}}),
        ("integral", {"parameters": {"n": 2, "k": 2, "polynomial": 5}}),
        ("fixed-points", {"parameters": {"n": 2, "k": True}}),
        ("residue", {"parameters": {"form": 1}}),
        ("euler-char", {"parameters": {"n": 2, "k": 1, "a": [[3], [1]]}}),
        ("ggl", {"parameters": {"n": 2, "a": [3, 1], "delta": {"num": 1}}}),
        ("ggl", {"parameters": {"n": 2, "max_terms": [30]}}),
        ("fixed-points", {"parameters": {"n": 2.5, "k": 1}}),
        ("fixed-points", {"parameters": {"n": 2.0, "k": 1}}),
        ("ggl", {"parameters": {"n": 2, "a": [3, 1], "delta": 0.1}}),
        ("fibre-integral",
         {"parameters": {"n": 2, "k": 1, "polynomial": "u1", "lambdas": [0.1, 2]}}),
        ("euler-char", {"parameters": {"n": 2, "k": 1, "a": [3.0]}}),
        ("residue", {"parameters": {"form": "1/((z1)^2)", "zvars": 5}}),
        ("residue", {"parameters": {"form": "1/((z1)^2)", "zvars": "z1"}}),
        ("fibre-integral",
         {"parameters": {"n": 2, "k": 1, "polynomial": "u1", "method": "interpolation"}}),
        ("fibre-integral",
         {"parameters": {"n": 2, "k": 1, "polynomial": "u1", "lambdas": [1, 2, 3]}}),
    ],
    ids=["top-level-list", "parameters-list", "ample-a", "ggl-a", "euler-a", "lambdas",
         "n-list", "polynomial-number", "k-bool", "form-number", "a-nested", "delta-object",
         "max-terms-list", "n-float", "n-integral-float", "delta-float", "lambdas-float",
         "a-float", "zvars-number", "zvars-string", "method-unknown", "lambdas-length"],
)
def test_malformed_job_file_is_a_validation_error(command, job, tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    code = main([command, "--job", str(job_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "validation"


@pytest.mark.parametrize(
    "zvars", [[], ["z1", "z1"], ["z1", "h"], ["d"]], ids=["empty", "duplicate", "h", "d"]
)
def test_bad_zvars_are_validation_errors(zvars, tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({"parameters": {"form": "1/((z1)^2)", "zvars": zvars}}),
                        encoding="utf-8")
    code = main(["residue", "--job", str(job_path)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert error["code"] == "validation"
    assert "zvars" in error["message"]


def test_residue_expand_cap_names_its_stage(capsys):
    code = main(["ggl", "-n", "3", "--max-terms", "30"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error["code"] == "resource"
    assert "residue_expand" in error["message"]
