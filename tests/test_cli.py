import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import tautjac
from helpers import conjugation_oracle, member_oracle, plant_column, s_column
from tautjac import lie
from tautjac.cache import _decode, _payload, cache_path, get_or_build, load_ideal, store_ideal
from tautjac.errors import InvalidGenus
from tautjac.cli import main
from tautjac.fourier import FourierMap
from tautjac.ideal import RelationIdeal
from tautjac.operators import Operator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normal_form_command(capsys):
    code, out, _ = run(capsys, "normal-form", "--genus", "3", "--expr", "p2*q1")
    assert code == 0
    assert out.strip() == "3/4*p1*q1^2"


def test_member_command(capsys):
    code, out, _ = run(capsys, "member", "--genus", "2", "--expr", "p2 - p1*q1")
    assert code == 0
    assert out.strip() == "true"
    code, out, err = run(capsys, "member", "--genus", "2", "--expr", "p1*q1")
    assert code == 1
    assert out.strip() == "false"
    assert "normal form" in err


def test_expression_errors_exit_2(capsys):
    code, _, err = run(capsys, "member", "--genus", "2", "--expr", "q0")
    assert code == 2
    assert "q0" in err
    code, _, err = run(capsys, "normal-form", "--genus", "2", "--expr", "p1 +")
    assert code == 2
    # superscripts pass str.isdigit but not int(): typed errors, not tracebacks
    for expr in ["p²", "3²", "p1^²", "3/²"]:
        code, out, err = run(capsys, "member", "--genus", "2", "--expr", expr)
        assert (code, out) == (2, ""), expr
        assert err.startswith("expression error:") and err.count("\n") == 1, (expr, err)
    # digits are ASCII 0-9: other scripts' digits pass str.isdecimal()
    # but are unexpected characters, not silently read as 0-9
    for expr, char, position in [
        ("p1^\u0663 + p\uff11", "\u0663", 3), ("p\uff11", "\uff11", 1),
        ("\u0663/4", "\u0663", 0), ("3/\u0664", "\u0664", 2), ("q\u0967", "\u0967", 1),
    ]:
        code, out, err = run(capsys, "member", "--genus", "2", "--expr", expr)
        assert (code, out) == (2, ""), expr
        assert err.startswith("expression error: unexpected character %r" % char), (expr, err)
        assert err.endswith("(at position %d)\n" % position) and err.count("\n") == 1, (expr, err)
    # a '/' outside a rational literal names its position
    for expr, position in [("p1/2", 2), ("/3", 0)]:
        code, out, err = run(capsys, "member", "--genus", "2", "--expr", expr)
        assert (code, out) == (2, "")
        assert err == (
            "expression error: '/' is only valid inside a rational literal"
            " like 3/4 (at position %d)\n" % position
        )


def test_integers_past_the_str_digit_limit_are_exact(capsys):
    # CPython 3.11+ refuses int <-> str past 4,300 digits unless lifted;
    # the CLI lifts it while a command runs and restores it afterwards
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    literal = "7" * 5000
    assert run(capsys, "normal-form", "--genus", "3", "--expr=" + literal) == (0, literal + "\n", "")
    assert run(capsys, "normal-form", "--genus", "3", "--expr=p" + literal) == (0, "0\n", "")
    code, out, err = run(
        capsys, "dump-operator", "--genus", "3", "--op", "field", "--m", "3", "--n", "2000",
        "--window", "2",
    )
    assert (code, err) == (0, "")
    assert max(len(digits) for digits in re.findall(r"\d+", out)) == 5743
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["member", "--genus", "2"])  # missing --expr
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    capsys.readouterr()
    # integer options read ASCII digits only, as the expression parser does:
    # int() alone would read an Arabic-Indic or a fullwidth 3 as 3
    for argv in [
        ["member", "--expr", "q2 - 1/4*q1^2", "--genus", "\u0663"],
        ["relations", "--genus", "3", "--weight", "\uff12"],
        ["verify", "lie", "--genus", "2", "--max-order", "\u0663"],
        ["fourier", "--genus", "2", "--check", "conj", "--m", "1", "--n", "\u0967"],
        ["dump-operator", "--genus", "2", "--op", "descent", "--window", "\u0664"],
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "invalid int value: '%s'" % argv[-1] in capsys.readouterr().err, argv
    bad = [
        ["verify", "lie", "--genus", "2", "--window", "0"],
        ["dump-operator", "--genus", "2", "--op", "descent", "--window", "0"],
        ["relations", "--genus", "2", "--weight", "-1"],
        ["relations", "--genus", "2", "--weight", "3"],
        ["verify", "lie", "--genus", "2", "--max-order", "-3"],
        ["verify", "sl2", "--genus", "2", "--max-order", "1"],
        ["fourier", "--genus", "2", "--check", "conj", "--m=-1", "--n", "2"],
        ["dump-operator", "--genus", "2", "--op", "field", "--m=-1", "--n", "2"],
        ["dump-operator", "--genus", "2", "--op", "density", "--m", "0", "--n=-2"],
        ["fourier", "--genus", "2", "--check", "conj", "--m", "1", "--n", "0"],
        ["fourier", "--genus", "2", "--check", "conj", "--m", "1"],
        ["dump-operator", "--genus", "2", "--op", "raw", "--n", "1"],
        ["newton", "--genus", "2", "--to-d", "1,x"],
        ["newton", "--genus", "3", "--to-d", "\u0661,\u0662,\uff13"],
        ["newton", "--genus", "3", "--to-w", "1,2,\uff13"],
        ["newton", "--genus", "4", "--to-d", "1,2,3"],
        ["newton", "--genus", "2", "--to-d", "1,,2"],  # every field must hold a value
        ["newton", "--genus", "3", "--to-d", "1,2,3,"],
        ["newton", "--genus", "0", "--to-d="],
        ["newton", "--genus=-1", "--to-d", "1"],
    ]
    # --window must reach --max-order (lie, tilde, grading) or
    # --max-order + 2 (sl2, all): the bound passes, one below exits 2
    verify = ["verify", "--genus", "2", "--max-order", "4", "--window"]
    bounds = {"lie": 4, "tilde": 4, "grading": 4, "sl2": 6, "all": 6}
    for suite, bound in bounds.items():
        argv = verify[:1] + [suite] + verify[1:]
        code, out, _ = run(capsys, *argv, str(bound))
        assert code == 0 and out, suite
        bad.append(argv + [str(bound - 1)])
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv
    # verify takes no --jobs flag: argparse rejects it
    with pytest.raises(SystemExit) as info:
        main(["verify", "lie", "--genus", "2", "--jobs", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err


def test_verify_all_builds_each_member_once(capsys, monkeypatch):
    # the bracket suite and the sl2/tilde/grading sweeps share the
    # members of one window
    built = Counter()

    def counting(family, build):
        def wrapped(m, n, parts):
            built[(family, m, n, parts.window)] += 1
            return build(m, n, parts)
        return wrapped

    for family, build in list(lie._BUILDERS.items()):
        monkeypatch.setitem(lie._BUILDERS, family, counting(family, build))
    gc.collect()  # no context from an earlier test holds window 7 members
    code, out, _ = run(capsys, "verify", "all", "--genus", "3", "--max-order", "4", "--window", "7")
    assert code == 0 and "grading" in out
    assert len(built) > 40
    assert set(built.values()) == {1}, sorted(k for k, c in built.items() if c > 1)


@pytest.fixture
def planted_field(monkeypatch):
    """field(1,2) built with an extra term q3 d(p1) of the wrong bigrading."""
    build = lie._BUILDERS["field"]

    def planted(m, n, parts):
        a, b = build(m, n, parts)
        if (m, n) == (1, 2):
            return a + Operator.single(1, ((3, "q", 1),), ((1, "p", 1),)), b
        return a, b

    monkeypatch.setitem(lie._BUILDERS, "field", planted)
    gc.collect()  # no live context holds unplanted members


def test_verify_grading_failure_exits_1(capsys, planted_field):
    # the report names the failing identity on stderr and nothing
    # reaches stdout
    code, out, err = run(capsys, "verify", "grading", "--genus", "3", "--max-order", "4")
    assert code == 1 and out == ""
    entry = json.loads(err)
    assert entry["identity"] == "field(1,2) is bigraded of shift (1, 1)"
    assert entry["status"] == "fail" and entry["counterexample"] == "1 * q3 * d(p1)"


def test_verify_lie_failures_follow_the_table(capsys, planted_field):
    # the table reaches stdout in full; then each failing bracket is one
    # JSON line on stderr, and the exit code is 1
    code, out, err = run(capsys, "verify", "lie", "--genus", "3", "--max-order", "3", "--window", "7")
    assert code == 1
    assert out == (
        "bracket suite: genus 3, orders <= 3, window 7\n"
        "  density_density@g3          45 checked\n"
        "  field_density@g3            70 checked\n"
        "  field_field@g3              21 checked\n"
        "  total 136\n"
    )
    lines = err.splitlines()
    assert len(lines) == 6 and all(json.loads(line)["status"] == "fail" for line in lines)
    assert json.loads(lines[0])["counterexample"] == "-2 * q3"
    digest = "b79634099ec316378196a2f3ec5d084e081d574e6057d731f4ad9bad61cd1eda"
    assert hashlib.sha256(err.encode()).hexdigest() == digest


# sha256 of the stdout of verify reports: a change to their bytes must be
# deliberate and re-pinned here
REPORT_DIGESTS = [
    ("all", "2", "4", "aa755d53091f77dc7d84bce987edff8257294fbde9e970e32a99f5cae4e8138d"),
    ("all", "3", "4", "940b517ef228a0e7d74924e80fc29a96eec838f209c080185af84a0f91da865b"),
    ("grading", "3", "5", "5ef44ffafb67d84297e08bad02adb3c59339c7a5c0159046ff2d7cfea767a3a6"),
]


@pytest.mark.parametrize("suite, genus, order, digest", REPORT_DIGESTS)
def test_verify_report_digests(capsys, suite, genus, order, digest):
    code, out, err = run(
        capsys, "verify", suite, "--genus", genus, "--max-order", order, "--format", "json"
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_verbose_digest(capsys):
    # the table of every suite with the per-identity listing of the sl2,
    # tilde and grading sweeps; the JSON form of the same run is the
    # ("all", "3", "4") row of REPORT_DIGESTS
    code, out, err = run(capsys, "verify", "all", "--genus", "3", "--max-order", "4", "--verbose")
    assert code == 0 and err == ""
    digest = "3597292d1a0d4b7f99a32c44509a86a6c863717f6d7b16ce4cfa54f29eaf118c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_lie_verbose_lists_nothing_more(capsys):
    # --verbose lists the identities of the sl2, tilde and grading suites;
    # the bracket suite prints its counts either way, and the help says so
    argv = ["verify", "lie", "--genus", "2", "--max-order", "2"]
    plain = run(capsys, *argv)
    assert plain[0] == 0 and run(capsys, *argv, "--verbose") == plain
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    assert "bracket" not in usage
    assert "list each identity of the sl2, tilde and grading suites" in usage


def test_cli_import_starts_no_process_machinery():
    # the CLI runs in one process; importing it must not pay for the
    # multiprocessing or concurrent.futures modules
    code = (
        "import sys, tautjac.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tautjac.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_lie_import_does_not_load_the_ideal():
    # the operator layers sit below the relation ideal: lie takes its genus
    # check from errors, and only the ideal reaches up into lie, lazily
    code = "import sys, tautjac.lie; print('tautjac.ideal' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(tautjac.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_every_public_name_resolves():
    for name in tautjac.__all__:
        assert getattr(tautjac, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(tautjac, "no_such_name")


def test_member_on_a_warm_cache_loads_no_operator_layer(tmp_path):
    # the query path reads the cached ideal and reduces; the operator
    # layers (lie, operators, fourier) and newton are imported only by the
    # commands and the cold build that run them
    store_ideal(RelationIdeal.build(3), tmp_path)
    code = (
        "import sys, tautjac.cli\n"
        "status = tautjac.cli.main(['member', '--genus', '3', '--expr', 'q3',"
        " '--cache-dir', sys.argv[1]])\n"
        "print(status, sorted(m for m in sys.modules"
        " if m in ('tautjac.lie', 'tautjac.operators', 'tautjac.fourier', 'tautjac.newton')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tautjac.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.splitlines() == ["true", "0 []"]


def test_verify_lie_table(capsys):
    code, out, _ = run(
        capsys, "verify", "lie", "--genus", "3", "--max-order", "3",
        "--window", "6",
    )
    assert code == 0
    assert "bracket suite" in out
    assert "total" in out


def test_verify_all_json(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--genus", "2", "--max-order", "3",
        "--window", "7", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and data


def test_relations_json_deterministic(capsys):
    code, out1, _ = run(capsys, "relations", "--genus", "2")
    assert code == 0
    code, out2, _ = run(capsys, "relations", "--genus", "2")
    assert out1 == out2
    data = json.loads(out1)
    assert data["genus"] == 2
    assert data["monomial_order"] == "plex-interleaved-v1"
    assert data["format-version"] == 2
    assert [b["w"] for b in data["weights"]] == [0, 1, 2]


def test_output_does_not_depend_on_the_hash_seed():
    # each command in a fresh interpreter, uncached, under two string hash
    # seeds: any output that follows set or dict-of-str iteration order differs
    src = os.path.dirname(os.path.dirname(os.path.abspath(tautjac.__file__)))
    commands = (["relations", "--genus", "6", "--format", "json"],
                ["fourier", "--genus", "5", "--check", "s2"],
                ["verify", "all", "--genus", "3", "--max-order", "4", "--format", "json"],
                ["dump-operator", "--genus", "3", "--op", "field", "--m", "2", "--n", "3",
                 "--window", "6"])
    for argv in commands:
        outputs = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            env.pop("TAUTJAC_CACHE_DIR", None)
            result = subprocess.run([sys.executable, "-m", "tautjac.cli", *argv],
                                    capture_output=True, env=env)
            assert result.returncode == 0, (argv, seed, result.stderr)
            outputs.add(result.stdout)
        assert len(outputs) == 1 and outputs != {b""}, argv


def test_relations_weight_filter_and_md(capsys):
    code, out, _ = run(
        capsys, "relations", "--genus", "2", "--weight", "2"
    )
    data = json.loads(out)
    assert [b["w"] for b in data["weights"]] == [2]
    code, out, _ = run(
        capsys, "relations", "--genus", "2", "--format", "md"
    )
    assert code == 0
    assert out.startswith("# Derived relations")
    assert "| 2 | 2 |" in out
    code, _, err = run(
        capsys, "relations", "--genus", "2", "--weight", "9"
    )
    assert code == 2


def test_fourier_commands(capsys):
    code, out, _ = run(capsys, "fourier", "--genus", "2", "--check", "s2")
    assert code == 0
    assert "S^2" in out
    code, out, _ = run(
        capsys, "fourier", "--genus", "2", "--check", "conj", "--m", "0", "--n", "2"
    )
    assert (code, out) == (0, "S field(0,2) S^-1 = field(2,0): ok\n")
    # density(1,1) is zero on the genus-2 quotient: a pass that compared
    # zero with zero is reported as vacuous, and still exits 0
    code, out, _ = run(
        capsys, "fourier", "--genus", "2", "--check", "conj", "--m", "1", "--n", "1",
        "--family", "density"
    )
    assert (code, out) == (0, "S density(1,1) S^-1 = -density(1,1): vacuous\n")
    code, _, err = run(capsys, "fourier", "--genus", "2", "--check", "conj")
    assert code == 2


@pytest.mark.parametrize("genus", [2, 4])
def test_fourier_s2_failure_exits_1(capsys, monkeypatch, genus):
    entry = {"identity": "S^2 = (-1)^g [-1]^*", "status": "fail"}
    monkeypatch.setattr(FourierMap, "check_s2", lambda self: [entry])
    code, out, err = run(capsys, "fourier", "--genus", str(genus), "--check", "s2")
    assert code == 1
    assert out == ""
    assert json.loads(err) == entry


def test_fourier_conj_failure_exits_1(capsys, monkeypatch, ideal_g3):
    # a doubled column of S breaks S field(1,2) S^-1 = field(2,1): the
    # entry is the direct formula's, one JSON line on stderr, and nothing
    # reaches stdout
    verify = FourierMap.verify_conjugation

    def plant(fmap):
        mono = fmap.quotient_basis()[6][2]
        plant_column(fmap, mono, {d: 2 * c for d, c in s_column(fmap, mono).items()})

    def planted(self, m, n, family="field"):
        plant(self)
        return verify(self, m, n, family)

    monkeypatch.setattr(FourierMap, "verify_conjugation", planted)
    code, out, err = run(capsys, "fourier", "--genus", "3", "--check", "conj", "--m", "1", "--n", "2")
    fmap = FourierMap(ideal_g3)
    plant(fmap)
    entry = conjugation_oracle(fmap, 1, 2, "field")
    assert entry["status"] == "fail"
    assert (code, out, err) == (1, "", json.dumps(entry) + "\n")


def test_newton_commands(capsys):
    code, out, _ = run(capsys, "newton", "--genus", "3", "--to-d", "1,2,3")
    assert code == 0
    assert out.strip() == "-1,3/2,-2/3"
    # values starting with '-' need the '=' form, as usual for argparse
    code, out, _ = run(capsys, "newton", "--genus", "3", "--to-w=-1,3/2,-2/3")
    assert code == 0
    assert out.strip() == "1,2,3"
    code, _, err = run(capsys, "newton", "--genus", "4", "--to-d", "1,2,3")
    assert code == 2
    code, _, err = run(capsys, "newton", "--genus", "2", "--to-d", "1,x")
    assert code == 2


def test_genus_errors_share_one_message(capsys):
    # the operator context, the bracket suite and the newton command all
    # reject a genus below 2 with the text of errors.check_genus
    text = "genus must be an integer >= 2, got 1"
    for call in (lambda: lie.LieContext(1, 5), lambda: lie.run_bracket_suite([1], 2, 4)):
        with pytest.raises(InvalidGenus) as info:
            call()
        assert str(info.value) == text
    assert run(capsys, "newton", "--genus", "1", "--to-d", "1") == (2, "", "error: %s\n" % text)


def test_dump_operator(capsys):
    code, out, _ = run(
        capsys, "dump-operator", "--genus", "2", "--op", "descent", "--window", "3"
    )
    assert code == 0
    assert "d(p1)" in out
    code, _, err = run(capsys, "dump-operator", "--genus", "2", "--op", "field")
    assert code == 2


def test_dump_of_a_member_past_the_packing_bound(capsys):
    # density(130, 0) holds p1^130 among its partials, past the packing
    # bound 128; printing it packs nothing, so it is built and printed as
    # the member oracle builds it
    code, out, err = run(capsys, "dump-operator", "--genus", "3", "--op", "density",
                         "--m", "130", "--n", "0", "--window", "130")
    a, b = member_oracle("density", 130, 0, 130)
    assert (code, out, err) == (0, "%s\n" % (a + 3 * b), "")
    assert "p1" in out and not b.terms


# sha256 of the stdout of every dump-operator at window 5 (field, density
# and raw at m, n in {0, 1, 3}) and of normal-form over EXPRESSIONS: both
# print through the signed-sum text of Operator and Poly
DUMP_DIGESTS = {
    "2": "27e4704c4fd005c18236c857c50bfc4158e855a0981736f36bec92429f22b759",
    "5": "12afe74f7adf48865bfda191d29199002129659a3a26c3d3355f18910868b8b2",
}
EXPRESSIONS = [
    "p2*q1", "p1^3 - 2*q2 + 1/3", "-1/7*(p1 + q1)^3", "p3*q2 - 5/2*p1*q1^2 + q4",
    "(p1*q1 - p2)^2 - 1", "p2 - p1*q1",
]
NORMAL_FORM_DIGESTS = {
    "2": "2ad00928a6780599914f51f653d29e7226694a7a09b70d9f42e9b5b16ed6c141",
    "3": "eea1d8b7e988de965f3e460b0db696b45cdfa334cbac190b518d438754f91e54",
    "5": "ed3c211b629dff2e68479a39b03b59c7afc65a4941e22e2caf1329b65c309ee5",
}


def _joined_stdout(capsys, commands):
    outs = []
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        outs.append(out)
    return "".join(outs)


@pytest.mark.parametrize("genus", sorted(DUMP_DIGESTS))
def test_dump_operator_digests(capsys, genus):
    base = ["dump-operator", "--genus", genus, "--window", "5", "--op"]
    commands = [base + [op] for op in ("descent", "e", "f", "h")]
    commands += [
        base + [op, "--m", str(m), "--n", str(n)]
        for op in ("field", "density", "raw") for m in (0, 1, 3) for n in (0, 1, 3)
    ]
    out = _joined_stdout(capsys, commands)
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_DIGESTS[genus]


@pytest.mark.parametrize("genus", sorted(NORMAL_FORM_DIGESTS))
def test_normal_form_digests(capsys, genus):
    commands = [["normal-form", "--genus", genus, "--expr", expr] for expr in EXPRESSIONS]
    out = _joined_stdout(capsys, commands)
    assert hashlib.sha256(out.encode()).hexdigest() == NORMAL_FORM_DIGESTS[genus]


def test_cache_round_trip(tmp_path):
    ideal = RelationIdeal.build(2)
    path = store_ideal(ideal, tmp_path)
    assert path == cache_path(tmp_path, 2)
    assert path.name == "relideal-g2-v3.json"
    envelope = json.loads(path.read_text())
    assert sorted(envelope) == ["format-version", "genus", "ideal", "sha256"]
    assert envelope["format-version"] == 3
    # per weight, the quotient dimension and the flat index rows, pivot first
    assert envelope["ideal"] == {
        "monomial_order": "plex-interleaved-v1",
        "weights": [
            {"quotient_dim": 1, "rows": []},
            {"quotient_dim": 2, "rows": []},
            {"quotient_dim": 2, "rows": [[4, 1], [3, 1, 1, -1], [2, 1]]},
        ],
    }
    loaded = load_ideal(tmp_path, 2)
    assert loaded is not None
    assert loaded.to_json() == ideal.to_json()
    assert load_ideal(tmp_path, 3) is None


def test_cache_corruption_recomputes(tmp_path):
    ideal = RelationIdeal.build(2)
    path = store_ideal(ideal, tmp_path)
    data = json.loads(path.read_text())
    data["ideal"]["weights"][2]["rows"][0][1] = 2
    path.write_text(json.dumps(data))
    assert load_ideal(tmp_path, 2) is None  # hash mismatch, never trusted
    rebuilt = get_or_build(2, tmp_path)
    assert rebuilt.to_json() == ideal.to_json()
    assert load_ideal(tmp_path, 2) is not None  # restored


@pytest.mark.parametrize("genus", [2.0, "2"])
@pytest.mark.parametrize("warm", [False, True])
def test_cache_rejects_a_non_integer_genus(tmp_path, warm, genus):
    if warm:
        store_ideal(RelationIdeal.build(2), tmp_path)
    with pytest.raises(InvalidGenus) as cached:
        get_or_build(genus, tmp_path)
    with pytest.raises(InvalidGenus) as built:
        RelationIdeal.build(genus)
    assert str(cached.value) == str(built.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["relideal-g2-v3.json"] if warm else [])


def _member_p1_rebuilds(capsys, tmp_path):
    """The CLI answers right from a bad entry, and overwrites it."""
    assert load_ideal(tmp_path, 2) is None
    code, out, _ = run(
        capsys, "member", "--genus", "2", "--expr", "p1", "--cache-dir", str(tmp_path)
    )
    assert (code, out) == (1, "false\n")
    assert load_ideal(tmp_path, 2).to_json() == RelationIdeal.build(2).to_json()


def test_cache_non_object_entry_is_a_miss(capsys, tmp_path):
    cache_path(tmp_path, 2).write_text("[]")
    _member_p1_rebuilds(capsys, tmp_path)


def test_cache_deeply_nested_entry_is_a_miss(capsys, tmp_path):
    cache_path(tmp_path, 2).write_text("[" * 100000)
    _member_p1_rebuilds(capsys, tmp_path)


def test_cache_stale_v2_entry_is_ignored(capsys, tmp_path):
    # the entry layout before the index rows: the relations JSON as payload
    payload = RelationIdeal.build(2).to_json_dict()
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    stale = tmp_path / "relideal-g2-v2.json"
    stale.write_text(json.dumps({
        "format-version": 2, "genus": 2, "ideal": payload,
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }))
    _member_p1_rebuilds(capsys, tmp_path)
    assert json.loads(cache_path(tmp_path, 2).read_text())["format-version"] == 3
    assert not stale.exists()
    code, out, _ = run(capsys, "cache", "--dir", str(tmp_path), "--clear")
    assert (code, "removed 1" in out) == (0, True)
    assert list(tmp_path.iterdir()) == []


def test_cache_store_removes_only_its_genus_stale_entries(tmp_path):
    names = ["relideal-g2-v1.json", "relideal-g2-v2.json", "relideal-g22-v2.json",
             "relideal-g3-v2.json", "relideal-g3-v3.json"]
    for name in names:
        (tmp_path / name).write_text("{}")
    path = store_ideal(RelationIdeal.build(2), tmp_path)
    assert path == cache_path(tmp_path, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name] + names[2:])
    assert load_ideal(tmp_path, 2) is not None


def _store_tampered(tmp_path, genus, tamper):
    """Store the genus-g ideal, let tamper edit its weight blocks, and
    recompute the hash so that only the row checks can reject it.
    Returns the decode error tamper names."""
    path = store_ideal(RelationIdeal.build(genus), tmp_path)
    data = json.loads(path.read_text())
    error = tamper(data["ideal"]["weights"])
    body = json.dumps(data["ideal"], sort_keys=True, separators=(",", ":"))
    data["sha256"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=error):
        _decode(json.loads(path.read_text())["ideal"], genus)


def _extra_block(blocks):
    blocks.append(blocks[2])
    return "one block per weight"


def test_cache_out_of_range_weight_is_a_miss(capsys, tmp_path):
    _store_tampered(tmp_path, 2, _extra_block)
    _member_p1_rebuilds(capsys, tmp_path)


# Each tamper edits the genus-3 blocks, whose weight-3 rows are, by
# index: [9, 1] (q3), [8, 4, 2, -1] (4*p3 - p1*q1^2), [7, 1], [6, 4, 2, -1],
# [5, 4, 2, -3], [4, 2, 1, -1], [3, 1] (q1^3); weight 2 has five monomials.
def _wrong_weight_term(blocks):
    blocks[2]["rows"][0][:0] = [5, 1]
    return "out of range"


def _negative_index(blocks):
    blocks[3]["rows"][0] += [-1, 1]
    return "out of range"


def _not_rref(blocks):
    # the row of pivot p3 gains q1^3, the pivot of another weight-3 row
    blocks[3]["rows"][1] = [8, 4, 3, 2, 2, -1]
    return "not in RREF"


def _non_canonical_monomial(blocks):
    blocks[3]["rows"][1] = [2, -1, 8, 4]
    return "strictly decreasing"


def _repeated_index(blocks):
    blocks[3]["rows"][1] = [8, 4, 8, -1]
    return "strictly decreasing"


def _bool_coeff(blocks):
    blocks[3]["rows"][0][1] = True
    return "ints"


def _float_coeff(blocks):
    blocks[3]["rows"][0][1] = 1.0
    return "ints"


def _zero_coeff(blocks):
    blocks[3]["rows"][0] += [0, 0]
    return "primitive"


def _negative_pivot(blocks):
    blocks[3]["rows"][0][1] = -1
    return "positive pivot"


def _non_primitive(blocks):
    blocks[3]["rows"][0][1] = 2
    return "primitive"


def _shared_pivot(blocks):
    blocks[3]["rows"].append([9, 1, 0, 1])
    return "share the pivot"


def _wrong_quotient_dim(blocks):
    blocks[3]["quotient_dim"] = 4
    return "quotient dimension"


def _missing_block(blocks):
    blocks.pop()
    return "one block per weight"


@pytest.mark.parametrize("tamper", [
    _wrong_weight_term, _not_rref, _non_canonical_monomial, _negative_index,
    _repeated_index, _bool_coeff, _float_coeff, _zero_coeff, _negative_pivot,
    _non_primitive, _shared_pivot, _wrong_quotient_dim, _missing_block,
])
def test_cache_tampered_rows_are_a_miss(capsys, tmp_path, tamper):
    assert _payload(RelationIdeal.build(3))["weights"][3]["rows"][:2] == [[9, 1], [8, 4, 2, -1]]
    _store_tampered(tmp_path, 3, tamper)
    assert load_ideal(tmp_path, 3) is None
    code, out, _ = run(
        capsys, "member", "--genus", "3", "--expr", "q2 - 1/4*q1^2 + p3 - 1/4*p1*q1^2",
        "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (0, "true\n")
    assert load_ideal(tmp_path, 3).to_json() == RelationIdeal.build(3).to_json()


def test_cache_decode_rejects_bad_data(tmp_path, ideal_g2):
    path = store_ideal(ideal_g2, tmp_path)
    for key, value in (("format-version", 2), ("format-version", 99), ("genus", 3)):
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        assert load_ideal(tmp_path, 2) is None, (key, value)
    with pytest.raises(TypeError):
        _decode([], 2)
    payload = _payload(ideal_g2)
    assert _decode(payload, 2).to_json() == ideal_g2.to_json()
    with pytest.raises(ValueError):
        _decode(dict(payload, monomial_order="other"), 2)
    for weights in ({}, "w", [0, 1, 2]):
        with pytest.raises((ValueError, KeyError, TypeError)):
            _decode(dict(payload, weights=weights), 2)
    blocks = payload["weights"]
    for weights in (blocks[:2], blocks + blocks[2:], blocks[:1] * 3):
        with pytest.raises(ValueError):
            _decode(dict(payload, weights=weights), 2)
    with pytest.raises(ValueError):
        _decode(dict(payload, weights=blocks[:2] + [dict(blocks[2], quotient_dim=4)]), 2)


def test_cli_cache_transparency(capsys, tmp_path):
    cold = run(
        capsys, "relations", "--genus", "2",
        "--cache-dir", str(tmp_path),
    )
    warm = run(
        capsys, "relations", "--genus", "2",
        "--cache-dir", str(tmp_path),
    )
    bare = run(capsys, "relations", "--genus", "2")
    assert cold == warm == bare
    assert cache_path(tmp_path, 2).exists()


def test_env_var_overrides_dir(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("TAUTJAC_CACHE_DIR", str(env_dir))
    code, _, _ = run(
        capsys, "relations", "--genus", "2",
        "--cache-dir", str(flag_dir),
    )
    assert code == 0
    assert cache_path(env_dir, 2).exists()
    assert not flag_dir.exists()


def test_unusable_cache_dir_exits_2(capsys, tmp_path):
    # a regular file where the cache directory should be, or a directory
    # where the entry should be: a typed error naming the directory, and
    # no temporary file is left behind
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    cache_path(tmp_path, 2).mkdir()
    cases = [
        (["member", "--genus", "2", "--expr", "p1"], blocked, "File exists"),
        (["relations", "--genus", "2"], blocked / "sub", "Not a directory"),
        (["normal-form", "--genus", "2", "--expr", "p2"], tmp_path, "Is a directory"),
    ]
    for argv, root, reason in cases:
        code, out, err = run(capsys, *argv, "--cache-dir", str(root))
        assert (code, out) == (2, ""), argv
        assert err == "error: cache directory %s is not usable: %s\n" % (root, reason), argv
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blocked", cache_path(tmp_path, 2).name]


def test_cache_command_on_a_file_exits_2(capsys, tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    for extra in ([], ["--clear"]):
        code, out, err = run(capsys, "cache", "--dir", str(blocked), *extra)
        assert (code, out) == (2, "")
        assert err == "error: cache directory %s is not a directory\n" % blocked
    assert blocked.read_text() == ""


def test_unremovable_stale_entry_is_skipped(capsys, tmp_path):
    # a directory under another version's entry name cannot be unlinked;
    # it is never read, so the run prints and exits as one without it
    clean, blocked = tmp_path / "clean", tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "relideal-g2-v2.json").mkdir()
    argv = ["normal-form", "--genus", "2", "--expr", "p2", "--cache-dir"]
    assert run(capsys, *argv, str(blocked)) == run(capsys, *argv, str(clean)) == (0, "p1*q1\n", "")
    assert sorted(path.name for path in blocked.iterdir()) == ["relideal-g2-v2.json", "relideal-g2-v3.json"]
    assert load_ideal(blocked, 2) is not None


def test_cache_clear_removes_what_it_can_then_exits_2(capsys, tmp_path):
    # the unremovable v2 name sorts first; every other entry still goes
    (tmp_path / "relideal-g2-v2.json").mkdir()
    store_ideal(RelationIdeal.build(2), tmp_path)
    store_ideal(RelationIdeal.build(3), tmp_path)
    code, out, err = run(capsys, "cache", "--dir", str(tmp_path), "--clear")
    assert (code, out) == (2, "")
    assert err == "error: cannot remove cache entries in %s: relideal-g2-v2.json\n" % tmp_path
    assert [path.name for path in tmp_path.iterdir()] == ["relideal-g2-v2.json"]


def test_cache_command(capsys, tmp_path):
    ideal = RelationIdeal.build(2)
    store_ideal(ideal, tmp_path)
    code, out, _ = run(capsys, "cache", "--dir", str(tmp_path))
    assert code == 0
    assert "relideal-g2-v3.json" in out
    code, out, _ = run(capsys, "cache", "--dir", str(tmp_path), "--clear")
    assert code == 0
    assert "removed 1" in out
    code, out, _ = run(capsys, "cache", "--dir", str(tmp_path))
    assert (code, out) == (0, "cache dir: %s\n  (empty)\n" % tmp_path)
    # a directory that does not exist lists and clears as empty, and stays absent
    missing = tmp_path / "missing"
    code, out, _ = run(capsys, "cache", "--dir", str(missing))
    assert (code, out) == (0, "cache dir: %s\n  (empty)\n" % missing)
    code, out, _ = run(capsys, "cache", "--dir", str(missing), "--clear")
    assert (code, out) == (0, "removed 0 entries from %s\n" % missing)
    assert not missing.exists()
    code, out, _ = run(capsys, "cache")
    assert code == 0
    assert "no cache directory" in out
