import gc
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import tautjac
from tautjac import lie
from tautjac.cache import cache_path, get_or_build, load_ideal, store_ideal
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


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["member", "--genus", "2"])  # missing --expr
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    capsys.readouterr()
    bad = [
        ["verify", "lie", "--genus", "2", "--window", "0", "--jobs", "1"],
        ["dump-operator", "--genus", "2", "--op", "descent", "--window", "0"],
        ["relations", "--genus", "2", "--weight", "-1"],
        ["relations", "--genus", "2", "--weight", "3"],
        ["verify", "lie", "--genus", "2", "--max-order", "-3", "--jobs", "1"],
        ["verify", "sl2", "--genus", "2", "--max-order", "1"],
        ["fourier", "--genus", "2", "--check", "conj", "--m=-1", "--n", "2"],
        ["dump-operator", "--genus", "2", "--op", "field", "--m=-1", "--n", "2"],
        ["dump-operator", "--genus", "2", "--op", "density", "--m", "0", "--n=-2"],
        ["fourier", "--genus", "2", "--check", "conj", "--m", "1", "--n", "0"],
        ["fourier", "--genus", "2", "--check", "conj", "--m", "1"],
        ["dump-operator", "--genus", "2", "--op", "raw", "--n", "1"],
        ["newton", "--genus", "2", "--to-d", "1,x"],
        ["newton", "--genus", "4", "--to-d", "1,2,3"],
        ["newton", "--genus", "0", "--to-d="],
        ["newton", "--genus=-1", "--to-d", "1"],
    ]
    # --window must reach --max-order (lie, tilde, grading) or
    # --max-order + 2 (sl2, all): the bound passes, one below exits 2
    verify = ["verify", "--genus", "2", "--max-order", "4", "--jobs", "1", "--window"]
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


def test_verify_grading_failure_exits_1(capsys, monkeypatch):
    # field(1,2) with an extra term of the wrong bigrading: the report
    # names the failing identity on stderr and nothing reaches stdout
    build = lie._BUILDERS["field"]

    def planted(m, n, parts):
        a, b = build(m, n, parts)
        if (m, n) == (1, 2):
            return a + Operator.single(1, ((3, "q", 1),), ((1, "p", 1),)), b
        return a, b

    monkeypatch.setitem(lie._BUILDERS, "field", planted)
    gc.collect()  # no live context holds unplanted window 8 members
    code, out, err = run(capsys, "verify", "grading", "--genus", "3", "--max-order", "4")
    assert code == 1 and out == ""
    entry = json.loads(err)
    assert entry["identity"] == "field(1,2) is bigraded of shift (1, 1)"
    assert entry["status"] == "fail" and entry["counterexample"] == "1 * q3 * d(p1)"


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


def test_verify_lie_table(capsys):
    code, out, _ = run(
        capsys, "verify", "lie", "--genus", "3", "--max-order", "3",
        "--window", "6", "--jobs", "1",
    )
    assert code == 0
    assert "bracket suite" in out
    assert "total" in out


def test_verify_all_json(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--genus", "2", "--max-order", "3",
        "--window", "7", "--jobs", "1", "--format", "json",
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
    assert code == 0
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


def test_dump_operator(capsys):
    code, out, _ = run(
        capsys, "dump-operator", "--genus", "2", "--op", "descent", "--window", "3"
    )
    assert code == 0
    assert "d(p1)" in out
    code, _, err = run(capsys, "dump-operator", "--genus", "2", "--op", "field")
    assert code == 2


def test_cache_round_trip(tmp_path):
    ideal = RelationIdeal.build(2)
    path = store_ideal(ideal, tmp_path)
    assert path == cache_path(tmp_path, 2)
    assert path.name == "relideal-g2-v2.json"
    envelope = json.loads(path.read_text())
    assert sorted(envelope) == ["format-version", "genus", "ideal", "sha256"]
    loaded = load_ideal(tmp_path, 2)
    assert loaded is not None
    assert loaded.to_json() == ideal.to_json()
    assert load_ideal(tmp_path, 3) is None


def test_cache_corruption_recomputes(tmp_path):
    ideal = RelationIdeal.build(2)
    path = store_ideal(ideal, tmp_path)
    data = json.loads(path.read_text())
    data["ideal"]["weights"][2]["relations"][0][0]["coeff"] = "2"
    path.write_text(json.dumps(data))
    assert load_ideal(tmp_path, 2) is None  # hash mismatch, never trusted
    rebuilt = get_or_build(2, tmp_path)
    assert rebuilt.to_json() == ideal.to_json()
    assert load_ideal(tmp_path, 2) is not None  # restored


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


def _store_tampered(tmp_path, genus, tamper):
    """Store the genus-g ideal, let tamper edit its weight blocks, and
    recompute the hash so that only the row checks can reject it."""
    path = store_ideal(RelationIdeal.build(genus), tmp_path)
    data = json.loads(path.read_text())
    tamper(data["ideal"]["weights"])
    body = json.dumps(data["ideal"], sort_keys=True, separators=(",", ":"))
    data["sha256"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(data))


def test_cache_out_of_range_weight_is_a_miss(capsys, tmp_path):
    _store_tampered(tmp_path, 2, lambda blocks: blocks[2].update(w=7))
    _member_p1_rebuilds(capsys, tmp_path)


def _wrong_weight_term(blocks):
    blocks[2]["relations"][0].append({"monomial": "p1", "coeff": "5"})


def _not_rref(blocks):
    # the row of pivot p3 gains q1^3, the pivot of another weight-3 row
    blocks[3]["relations"][1].append({"monomial": "q1^3", "coeff": "2"})


def _non_canonical_monomial(blocks):
    term = blocks[3]["relations"][5][1]
    assert term["monomial"] == "p1^2*q1"
    term["monomial"] = "p1*p1*q1"


@pytest.mark.parametrize("tamper", [_wrong_weight_term, _not_rref, _non_canonical_monomial])
def test_cache_tampered_rows_are_a_miss(capsys, tmp_path, tamper):
    _store_tampered(tmp_path, 3, tamper)
    assert load_ideal(tmp_path, 3) is None
    code, out, _ = run(
        capsys, "member", "--genus", "3", "--expr", "q2 - 1/4*q1^2 + p3 - 1/4*p1*q1^2",
        "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (0, "true\n")
    assert load_ideal(tmp_path, 3).to_json() == RelationIdeal.build(3).to_json()


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


def test_cache_command(capsys, tmp_path):
    ideal = RelationIdeal.build(2)
    store_ideal(ideal, tmp_path)
    code, out, _ = run(capsys, "cache", "--dir", str(tmp_path))
    assert code == 0
    assert "relideal-g2-v2.json" in out
    code, out, _ = run(capsys, "cache", "--dir", str(tmp_path), "--clear")
    assert code == 0
    assert "removed 1" in out
    code, out, _ = run(capsys, "cache")
    assert code == 0
    assert "no cache directory" in out
