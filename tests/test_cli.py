"""CLI: corpus regression, determinism, round-trips, error codes."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

import jetres
from jetres.cli import main, run_job
from jetres.exactalg import DPoly, MultiPoly, Q, ResourceLimitError, VarContext
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
    expected_path = CORPUS / ("expected_" + job_path.name[len("job_") :])
    assert got == load(expected_path)
    # the written bytes too, once the one non-deterministic line is dropped
    lines = out_path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b'  "elapsed_seconds": '))
    assert kept == expected_path.read_bytes()


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
        ["integral", "-n", "3", "-k", "3", "-P", "(u1+2*u2-u3+h)^9", "--verify"],
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
        # without the n check the lambda draw never ends
        (["fibre-integral", "-n", "-1", "-k", "1", "-P", "u1"], "n must be at least 1"),
        (["integral", "-n", "0", "-k", "1", "-P", "u1"], "n must be at least 1"),
        (["euler-char", "-n", "0", "-k", "1", "--a", "1"], "n must be at least 1"),
        (["fibre-integral", "-n", "-3", "-k", "2", "--lambdas", "1,2", "-P", "u1"],
         "n must be at least 1"),
        (["integral", "-n", "2", "-k", "0", "-P", "1"], "k must be at least 1"),
        (["ggl", "-n", "-1"], "n must be >= 2"),
        (["diagnostics", "-n", "-2"], "n must be >= 2"),
        (["ggl", "-n", "2", "--bound", "5", "--delta", "7", "-k", "9"],
         "parameters bound, delta, k need the weights a"),
        (["ggl", "-n", "2", "-k", "2"], "parameters k need the weights a"),
        (["ggl", "-n", "2", "--a", "3,1", "--bound=-5"], "bound must be positive"),
        (["ggl", "-n", "2", "--a", "3,1", "--bound", "0"], "bound must be positive"),
        # checked before the build, which this point cap would stop
        (["ggl", "-n", "5", "--a", "567,189,63,21,10", "--bound=-5", "--max-points", "1"],
         "bound must be positive"),
        (["fixed-points", "-n", "0", "-k", "2"], "n must be at least 1"),
        (["euler-char", "-n", "3", "-k", "2", "--a", "9,3", "--budget", "6"],
         "budget below the tower dimension cannot be exact"),
    ],
    ids=["defect-cap-negative", "defect-cap-minus-one", "lambdas-length", "fibre-n-negative",
         "integral-n-0", "euler-n-0", "fibre-n-with-lambdas", "integral-k-0", "ggl-n-negative",
         "diagnostics-n-negative", "ggl-tuning-without-a", "ggl-k-without-a",
         "ggl-bound-negative", "ggl-bound-0", "ggl-bound-before-build", "fixed-points-n-0",
         "euler-budget-below-dim"],
)
def test_out_of_range_values_are_validation_errors(argv, message, capsys):
    code = main(argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert error["code"] == "validation"
    assert message in error["message"]


@pytest.mark.parametrize("command, params, name", [
    ("ggl", {"n": 2, "a": [3, 1], "delta": "1/0"}, "delta"),
    ("ggl", {"n": 2, "a": [3, 1], "bound": "x"}, "bound"),
    ("fibre-integral", {"n": 2, "k": 1, "polynomial": "u1", "lambdas": ["a", "b"]}, "lambdas"),
    ("ggl", {"n": 2, "a": [3, "x"]}, "a"),
    ("ggl", {"n": "2.5"}, "n"),
], ids=["delta-zero-denominator", "bound-text", "lambdas-text", "a-text", "n-decimal"])
def test_unconvertible_parameters_are_named(command, params, name, tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({"parameters": params}), encoding="utf-8")
    code = main([command, "--job", str(job_path)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert error["code"] == "validation"
    assert f"parameter {name} " in error["message"]


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_is_refused_before_the_job(where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code = main(["ample-check", "--a", "3,1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "validation"
    assert error["message"].startswith(f"cannot write --out {out}: ")


def test_euler_char_budget_only_refuses(capsys):
    # the series are truncated at the tower dimension 7 whatever the budget;
    # before, --budget 30 truncated them at 30 and took 0.68 s
    assert main(["euler-char", "-n", "3", "-k", "2", "--a", "9,3"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["euler-char", "-n", "3", "-k", "2", "--a", "9,3", "--budget", "30"]) == 0
    capped = json.loads(capsys.readouterr().out)
    assert capped["result"] == plain["result"]
    assert plain["budgets"]["budget"] is None and capped["budgets"]["budget"] == 30
    assert capped["elapsed_seconds"] < 0.2


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
    assert doc["verify"] == {"match": True, "method": "expand-vs-localization"}


def test_fibre_integral_residue_method(capsys):
    args = ["fibre-integral", "-n", "2", "-k", "2", "--polynomial", "u1*u2", "--lambdas", "1,3/2"]
    assert main(args + ["--method", "residue", "--verify"]) == 0
    doc_res = json.loads(capsys.readouterr().out)
    assert main(args + ["--method", "fixed-point"]) == 0
    doc_fp = json.loads(capsys.readouterr().out)
    assert doc_res["result"]["value"] == doc_fp["result"]["value"]
    assert doc_res["verify"] == {"match": True, "method": "dual-route"}


def test_fibre_integral_n1_agrees_on_both_routes(capsys):
    # at n = 1 the walk has one fixed point, where every z_j is -lambda_1
    for polynomial, text in (("u1*u2+h", "h+9"), ("u1^2-3*u2+d*h", "h*d")):
        for method in ("fixed-point", "residue"):
            args = ["fibre-integral", "-n", "1", "-k", "2", "--polynomial", polynomial,
                    "--lambdas", "3", "--method", method, "--verify"]
            assert main(args) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["result"]["value"]["text"] == text
            assert doc["verify"] == {"match": True, "method": "dual-route"}


def test_fixed_points_n1_is_one_chain(capsys):
    # at n = 1 every level has the one weight L_1
    assert main(["fixed-points", "-n", "1", "-k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"count": 1, "points": [[[1], [1]]]}


def test_integral_reports_an_unmatched_degree(capsys):
    # u1^3 has degree 3, not n + k(n-1) = 4, so its integral is 0
    assert main(["integral", "-n", "2", "-k", "2", "-P", "u1^3"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["degree_matched"] is False
    assert result["value"]["text"] == "0"


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


def test_cli_import_loads_no_dataclass_machinery():
    # every job pays for what `import jetres.cli` loads; these stdlib modules
    # (dataclasses and what it pulls in) cost start-up time and memory
    package = pathlib.Path(jetres.__file__).parent
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); before = set(sys.modules); "
            f"import jetres.cli; print([m for m in {heavy!r} "
            "if m in sys.modules and m not in before])")
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
        (["integral", "-n", "2", "-k", "2", "-P", "(u1+2*u2+h)^4"], "expand-vs-localization"),
        (["residue", "--form", "z2^2/((z1)^2*(z1-z2)*(2*z1-z2))"], "expand-vs-stepwise"),
        (["ggl", "-n", "2", "--a", "3,1"], "localization-vs-residue"),
        (["euler-char", "-n", "2", "-k", "2", "--a", "6,2"], "expand-vs-localization"),
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
    # one localization run gives the primary I(d), one residue run checks it
    calls = {"localization": 0, "residue": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(jetres.ggl, "integral_over_tower_fixed_points",
                        counted("localization", jetres.ggl.integral_over_tower_fixed_points))
    monkeypatch.setattr(jetres.cli, "integral_over_tower",
                        counted("residue", jetres.cli.integral_over_tower))
    assert main(argv + ["--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["match"]
    assert calls == {"localization": 1, "residue": 1}


def test_integral_verify_checks_by_localization(monkeypatch, capsys):
    # the check integrates P by fixed points: no stepwise residue, and the
    # integrand is built once, for the primary route
    calls = {"stepwise": 0, "integrand": 0, "localization": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name, module, attr in (("stepwise", jetres.cli, "residue_stepwise"),
                               ("integrand", jetres.residue, "hypersurface_integrand"),
                               ("localization", jetres.cli, "payload_integral_fixed_points")):
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    assert main(["integral", "-n", "3", "-k", "2", "-P", "(u1-3*u2+d*h)^7", "--verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verify"] == {"match": True, "method": "expand-vs-localization"}
    assert calls == {"stepwise": 0, "integrand": 1, "localization": 1}


def test_integral_verify_mismatch_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("jetres.cli.payload_integral_fixed_points",
                        lambda n, k, P, point_cap: DPoly([0, 1]))
    code = main(["integral", "-n", "2", "-k", "2", "-P", "(u1+2*u2+h)^4", "--verify"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "verify-mismatch"


def test_euler_char_verify_mismatch_exits_3(monkeypatch, capsys):
    # the check integrates the same Todd payload by fixed points, so a wrong
    # localization value is caught
    monkeypatch.setattr("jetres.cli.payload_integral_fixed_points",
                        lambda n, k, P, point_cap: DPoly([0, 1]))
    code = main(["euler-char", "-n", "2", "-k", "2", "--a", "6,2", "--verify"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "verify-mismatch"


def test_ggl_verify_with_k_not_n(capsys):
    # the residue check handles any k; the table-assembly check it replaced
    # refused k != n
    assert main(["ggl", "-n", "2", "--a", "9,3,1", "--verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verify"] == {"match": True, "method": "localization-vs-residue"}
    assert len(doc["result"]["intersection"]["coefficients"]) == 4


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
    # the parser's caps pass a one-term numerator; the residue's products
    # carry more than 30 terms (the value alone has 49)
    code = main(["residue", "--form", "z2^12*z1^6/((z1-h-d)^4*(z2-z1+h-d)^4)",
                 "--max-terms", "30"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error["code"] == "resource"
    assert "residue_expand" in error["message"]


@pytest.mark.parametrize("form", ["z1^3/((z1)^100000000)", "z1^3/((z1+h)^1000000)"],
                         ids=["z1", "z1+h"])
def test_stepwise_residue_stops_when_the_numerator_vanishes(form, capsys):
    # the fourth derivative of z1^3 is 0, so the pole of order m has no
    # residue: the stepwise check stops its m - 1 derivative steps there and
    # never builds (m - 1)!
    start = time.monotonic()
    code = main(["residue", "--form", form, "--verify"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["value"]["text"] == "0"
    assert time.monotonic() - start < 5


def test_integrand_builder_cap_names_its_stage(capsys):
    # the parser's bound for this power is C(20, 4) = 4,845 terms, under the
    # cap; the builder's products reach 9,908 terms, so the builder stops it
    start = time.monotonic()
    code = main(["integral", "-n", "4", "-k", "4", "--polynomial", "(u1+u2+u3+u4+h)^16",
                 "--max-terms", "5000"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error["code"] == "resource"
    assert "hypersurface_integrand" in error["message"]
    assert time.monotonic() - start < 5


def test_diagnostics_term_cap_is_a_resource_error(capsys):
    # the first table result over 1,000 terms comes within a second; without
    # the cap the n = 4 tables take a few seconds (127,161 kernel entries)
    start = time.monotonic()
    code = main(["diagnostics", "-n", "4", "--max-terms", "1000"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error["code"] == "resource"
    assert error["message"] == "expansion_diagnostics exceeded 1000 terms"
    assert time.monotonic() - start < 15


@pytest.mark.parametrize("n, cap, message", [
    (5, 1000, "intersection_payload: a 6-term base to the power 24 may exceed 1000 terms"),
    # C(11, 3) = 165 terms of 1 + 8 * 40 // 64 = 6 words each
    (3, 989, "intersection_payload: a 4-term base to the power 8 may exceed 989 words "
             "(terms times 64-bit words per coefficient)"),
], ids=["n5", "n3-words"])
def test_payload_power_cap_is_a_resource_error(n, cap, message, capsys):
    # uncapped, the n = 5 payload power alone ran for a minute
    start = time.monotonic()
    code = main(["ggl", "-n", str(n), "--verify", "--max-terms", str(cap)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error["code"] == "resource"
    assert error["message"] == message
    assert time.monotonic() - start < 10


TERMS_CAPPED = "parse: a 3-term base to the power 100000 may exceed 10000000 terms"


@pytest.mark.parametrize("command, message", [
    (["integral", "-n", "2", "-k", "1", "--polynomial", "(z1+h+d)^100000"], TERMS_CAPPED),
    (["residue", "--form", "(z1+h+d)^100000/((z1)^2)"], TERMS_CAPPED),
    # 100,001 terms, under the cap, but coefficients bounded by 3,126 words
    # (the largest, C(100000, 50000), has about 1,560)
    (["residue", "--form", "(z1+h)^100000/((z1)^2)"],
     "parse: a 2-term base to the power 100000 may exceed 10000000 words "
     "(terms times 64-bit words per coefficient)"),
    # each power passes (3,001 terms of at most 94 words), their first
    # product does not: 3,001^2 pairs of 188 words
    (["residue", "--form", "(z1+h)^3000*(z1+h)^3000*(z1+h)^3000/((z1)^2)"],
     "parse: a product of 3001 by 3001 terms may exceed 10000000 words "
     "(terms times 64-bit words per coefficient)"),
], ids=["integral", "residue", "residue-size", "residue-product"])
def test_parser_power_cap_is_a_resource_error(command, message, capsys):
    # C(100002, 2), about 5e9, bounds the terms of the power, so the default
    # cap of 10^7 stops it before expansion; uncapped these ran for minutes
    start = time.monotonic()
    code = main(command)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error["code"] == "resource"
    assert error["message"] == message
    assert time.monotonic() - start < 5


def test_parser_power_cap_counts_coefficient_words():
    # (z1 + h)^64 has 65 terms of at most 2^64 = (1 + 1)^64, counted as
    # 1 + 64 * 2 // 64 = 3 words each: a cap of 195 passes, 194 does not
    ctx = VarContext(("z1", "h"))
    assert len(parse_poly("(z1 + h)^64", ctx, 195).terms) == 65
    with pytest.raises(ResourceLimitError, match="power 64 may exceed 194 words"):
        parse_poly("(z1 + h)^64", ctx, 194)


def test_parser_product_cap_counts_pairs_and_words():
    # (z1 + h)^64 has 65 terms summing to 2^64, a 65-bit bound, so its
    # square is 65 * 65 pairs of 1 + (65 + 65) // 64 = 3 words each: a cap
    # of 12,675 passes, 12,674 does not
    ctx = VarContext(("z1", "h"))
    assert len(parse_poly("(z1 + h)^64 * (z1 + h)^64", ctx, 12675).terms) == 129
    with pytest.raises(ResourceLimitError, match="product of 65 by 65 terms may exceed 12674"):
        parse_poly("(z1 + h)^64 * (z1 + h)^64", ctx, 12674)


def test_parser_power_cap_is_the_term_bound():
    # (z1 + h)^3 has C(3 + 1, 1) = 4 terms: a cap of 4 passes, 3 does not
    ctx = VarContext(("z1", "h"))
    assert len(parse_poly("(z1 + h)^3", ctx, 4).terms) == 4
    with pytest.raises(ResourceLimitError, match="2-term base to the power 3 may exceed 3"):
        parse_poly("(z1 + h)^3", ctx, 3)


def test_diagnostics_point_cap_is_a_resource_error(capsys):
    code = main(["diagnostics", "-n", "2", "--max-points", "1"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error == {"code": "resource", "message": "2^2 fixed points exceed cap 1"}


@pytest.mark.parametrize("argv, message", [
    (["ggl", "-n", "300"], "300^300"),
    (["ggl", "-n", "20000"], "20000^20000"),
    (["diagnostics", "-n", "300"], "300^300"),
    (["ggl", "-n", "20000", "-k", "2", "--a", "9,3"], "20000^2"),
], ids=["ggl-n300", "ggl-n20000", "diagnostics-n300", "ggl-custom-n20000"])
def test_point_cap_stops_a_large_n_at_once(argv, message, capsys):
    # checked before the canonical weights n^(8(n+1-i)) and the payload
    # blocks, which grow with n: ggl -n 150 took 14 s to reach the cap
    start = time.monotonic()
    code = main(argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error == {"code": "resource", "message": f"{message} fixed points exceed cap 1000000"}
    assert time.monotonic() - start < 5


def test_ggl_point_cap_is_a_resource_error(capsys):
    # the primary localization route is bounded by the fixed-point count
    code = main(["ggl", "-n", "3", "--max-points", "5"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error["code"] == "resource"
    assert "fixed points exceed cap 5" in error["message"]


@pytest.mark.parametrize("argv", [
    ["fixed-points", "-n", "1", "-k", "5000"],
    ["fibre-integral", "-n", "1", "-k", "3000", "-P", "1", "--lambdas", "3"],
    ["integral", "-n", "2", "-k", "1", "-P", "(" * 400 + "h" + ")" * 400],
], ids=["fixed-points-k5000", "fibre-integral-k3000", "nested-parentheses"])
def test_deep_input_is_a_resource_error(argv, capsys):
    # the point cap counts 1^k = 1 point at n = 1, so the tower walks and the
    # parser go one frame per level or parenthesis, past the recursion limit
    start = time.monotonic()
    code = main(argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error == {"code": "resource",
                     "message": "input nests deeper than Python's recursion limit"}
    assert time.monotonic() - start < 5


def test_a_900_level_tower_stays_within_the_recursion_limit():
    # a fresh interpreter, whose stack holds none of the test runner's frames
    run = subprocess.run([sys.executable, "-m", "jetres.cli", "fixed-points", "-n", "1",
                          "-k", "900"], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    assert json.loads(run.stdout)["result"]["count"] == 1


@pytest.mark.parametrize("argv, message", [
    (["-k", "9"], "a 8-term base to the power 36 may exceed 10000000 terms"),
    (["-k", "3000"], "a 2999-term base to the power 4498500 may exceed 10000000 terms"),
    (["-k", "8", "--max-terms", "100000"], "a 7-term base to the power 28 may exceed 100000 terms"),
], ids=["k9", "k3000", "k8-max-terms"])
def test_plus_kernel_cap_is_a_resource_error(argv, message, capsys):
    # the kernel's k(k-1)/2 numerators are multiplied before the builder's
    # capped products; uncapped, -k 8 took 5.5 s and -k 10 over 30 s.  P = h
    # has the tower's dimension 1 at n = 1, so the kernel is built.
    start = time.monotonic()
    code = main(["integral", "-n", "1", "-P", "h"] + argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert error == {"code": "resource", "message": f"hypersurface_integrand: {message}"}
    assert time.monotonic() - start < 5


def test_off_degree_payload_integrates_to_zero_at_once(capsys):
    # P = 1 has degree 0 against the tower's dimension 1, so no term of it
    # reaches the top degree and no kernel is built
    start = time.monotonic()
    code = main(["integral", "-n", "1", "-k", "9", "-P", "1"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert result["value"]["coefficients"] == [] and result["value"]["text"] == "0"
    assert result["degree_matched"] is False
    assert time.monotonic() - start < 2
