"""The batch CLI: exit codes, JSON reports, determinism, golden files."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from conftest import POSET_P, REPO_ROOT, product_document, relisted, valuation_document
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import stable_topological_order

from sharplat import cli, enumeration, exemplars, gallery
from sharplat.cli import main
from sharplat.errors import InternalEquivalenceViolation, InternalValidationFailure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def assert_payload(capsys, argv, code, payload):
    """``argv`` prints ``payload`` and exits ``code``, compact and pretty."""
    for pretty in ([], ["--pretty"]):
        out = run(capsys, *argv, *pretty)
        indent = 2 if pretty else None
        separators = None if pretty else (",", ":")
        assert out == (code, json.dumps(payload, indent=indent, separators=separators) + "\n")


def write_poset(path, poset):
    leq = [[int(v) for v in row] for row in poset.leq]
    path.write_text(json.dumps({"elements": list(poset.names), "leq": leq}), encoding="utf-8")
    return path


# -- validate -----------------------------------------------------------


def test_validate_fixture_ok(capsys, fixtures_dir):
    code, out = run_json(capsys, "validate", str(fixtures_dir / "nonsharp5.json"))
    assert code == 0
    assert out["valid"] is True
    assert out["elements"] == ["0", "a", "b", "c", "1"]


def test_validate_diamond_fixture(capsys, fixtures_dir):
    code, out = run_json(capsys, "validate", str(fixtures_dir / "diamond.json"))
    assert code == 0 and out["valid"] is True


def test_validate_missing_file_is_io_error(capsys, tmp_path):
    code, out = run_json(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert out["stage"] == "io"


def test_validate_unparseable_json_is_schema_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out = run_json(capsys, "validate", str(path))
    assert code == 2
    assert out["stage"] == "schema"


def test_validate_missing_key_is_schema_error(capsys, tmp_path):
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps({"elements": ["0", "1"]}), encoding="utf-8")
    code, out = run_json(capsys, "validate", str(path))
    assert code == 2
    assert out["stage"] == "schema"


def test_validate_non_transitive_leq_is_axiom_error(capsys, tmp_path):
    doc = {
        "elements": ["0", "a", "1"],
        "leq": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        "mult": [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_json(capsys, "validate", str(path))
    assert code == 2
    assert out["stage"] == "axioms"
    assert out["error"] == "NotAPartialOrder"
    assert out["witness"] == [0, 1, 2]


def test_validate_axiom_violation_reports_witness(capsys, tmp_path, nonsharp5):
    doc = nonsharp5.serialize()
    doc["mult"][1][3] = 2
    doc["mult"][3][1] = 2
    path = tmp_path / "notdist.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_json(capsys, "validate", str(path))
    assert code == 2
    assert out["stage"] == "axioms"
    assert out["error"] in ("NotDistributive", "NotAssociative")
    assert out["witness"] is not None


# -- report -------------------------------------------------------------


def test_report_sharp_nonsharp5(capsys, fixtures_dir):
    code, out = run_json(
        capsys, "report", str(fixtures_dir / "nonsharp5.json"), "--sharp"
    )
    assert code == 0
    sharp = out["sharpness"]
    assert sharp["by_residual_identity"] is False
    assert sharp["counterexample_names"] == ["a", "b"]
    assert "profile" not in out and "audit" not in out


def test_report_profile_chain2(capsys, fixtures_dir):
    code, out = run_json(
        capsys, "report", str(fixtures_dir / "chain2.json"), "--profile"
    )
    assert code == 0
    assert out["profile"]["is_dedekind"] is True
    assert out["profile"]["is_domain"] is True
    assert len(out["element_profiles"]) == 2


def test_report_audit_nonsharp5(capsys, fixtures_dir):
    code, out = run_json(
        capsys, "report", str(fixtures_dir / "nonsharp5.json"), "--audit"
    )
    assert code == 0
    claims = {r["claim"]: r for r in out["audit"]["claims"]}
    assert claims["maximal_square_gap"]["status"] == "verified"


def test_report_defaults_to_all_sections(capsys, fixtures_dir):
    code, out = run_json(capsys, "report", str(fixtures_dir / "chain3_nil.json"))
    assert code == 0
    assert {"profile", "element_profiles", "sharpness", "audit"} <= set(out)


def _report_golden_paths(fixtures_dir, directory):
    """Every gallery fixture, plus two built lattices written to
    ``directory``: the sharp local valuation 16-chain and the non-local
    product of two valuation 5-chains."""
    paths = {name: fixtures_dir / f"{name}.json" for name in gallery.gallery_documents()}
    five = valuation_document(5)
    built = {
        "valuation_chain16": valuation_document(16),
        "valuation_product5x5": product_document(five, five),
    }
    for name, doc in built.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def test_report_matches_golden_file(capsys, tmp_path, fixtures_dir):
    # full report (all sections) byte for byte: profiles, sharpness,
    # and every audit record with its witness and vacuous flag
    golden = json.loads(
        (fixtures_dir / "report_gallery.json").read_text(encoding="utf-8")
    )
    paths = _report_golden_paths(fixtures_dir, tmp_path)
    assert sorted(paths) == sorted(golden)
    for name, path in paths.items():
        code, out = run(capsys, "report", str(path))
        assert code == 0, name
        assert out == golden[name], name


# the keys each report flag prints, besides "elements"
_SECTION_KEYS = {
    "profile": ("profile", "element_profiles", "principal_monoid"),
    "sharp": ("sharpness",),
    "audit": ("audit",),
}


def test_partial_reports_match_golden_file(capsys, tmp_path, fixtures_dir):
    # one and two flags print exactly the golden full report's keys for
    # those flags, in the same bytes
    golden = json.loads(
        (fixtures_dir / "report_gallery.json").read_text(encoding="utf-8")
    )
    flag_sets = [
        flags for k in (1, 2) for flags in itertools.combinations(_SECTION_KEYS, k)
    ]
    for name, path in _report_golden_paths(fixtures_dir, tmp_path).items():
        full = json.loads(golden[name])
        for flags in flag_sets:
            keys = {"elements", *(key for f in flags for key in _SECTION_KEYS[f])}
            expected = json.dumps(
                {k: v for k, v in full.items() if k in keys}, separators=(",", ":")
            )
            argv = ["report", str(path), *(f"--{f}" for f in flags)]
            assert run(capsys, *argv) == (0, expected + "\n"), (name, flags)


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``sharplat argv`` in a new process."""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "sharplat.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize(
    "first",
    [
        ["exemplars", "--model", "r1", "--trials", "0"],
        ["enumerate", "--chain", "3", "--poset", "x"],
        ["report", "nonsharp5", "--pretty"],
        ["report", "nonsharp5", "--sharp"],
    ],
    ids=["rejected-trials", "rejected-exclusive", "pretty", "sharp-only"],
)
def test_parser_is_reused_safely(capsys, monkeypatch, fixtures_dir, first):
    # main builds its parser once per process; a call, even one argparse
    # rejects, leaves nothing behind for the next
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at this width
    path = str(fixtures_dir / "nonsharp5.json")
    first = [path if arg == "nonsharp5" else arg for arg in first]
    golden = json.loads(
        (fixtures_dir / "report_gallery.json").read_text(encoding="utf-8")
    )
    assert cli.build_parser() is cli.build_parser()
    assert _in_process(capsys, first) == _fresh_process(first)
    assert _in_process(capsys, ["report", path]) == (0, golden["nonsharp5"], "")


def _report_in_process(doc, flags):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "lattice.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["report", str(path), *flags])
    return code, buf.getvalue()


_GALLERY_DOCUMENTS = list(gallery.gallery_documents().values())


@settings(deadline=None)
@given(data=st.data())
def test_report_is_invariant_under_element_order(census_structures, data):
    # a report on a scrambled document is byte-identical to the report
    # on the same document relisted in canonical order
    census = [L for family in census_structures.values() for L in family]
    doc = data.draw(
        st.sampled_from(_GALLERY_DOCUMENTS)
        | st.sampled_from(census).map(lambda L: L.serialize()),
        label="document",
    )
    order = data.draw(st.permutations(range(len(doc["elements"]))), label="order")
    flags = data.draw(
        st.sampled_from([[], ["--profile"], ["--sharp"], ["--audit"], ["--pretty"]]),
        label="flags",
    )
    scrambled = relisted(doc, order)
    canonical = relisted(scrambled, stable_topological_order(scrambled["leq"]))
    assert _report_in_process(scrambled, flags) == _report_in_process(canonical, flags)


# -- enumerate ----------------------------------------------------------


def test_enumerate_chain5_census(capsys):
    code, out = run_json(capsys, "enumerate", "--chain", "5", "--census")
    assert code == 0
    assert out["total_structures"] == 22
    assert out["sharp_count"] == 13


def test_enumerate_chain2_census(capsys):
    code, out = run_json(capsys, "enumerate", "--chain", "2", "--census")
    assert code == 0
    assert out["total_structures"] == 1 and out["sharp_count"] == 1


def test_enumerate_census_runs_are_byte_identical(capsys):
    code1, first = run(capsys, "enumerate", "--chain", "4", "--census")
    code2, second = run(capsys, "enumerate", "--chain", "4", "--census")
    assert code1 == code2 == 0
    assert first == second


def test_enumerate_census_matches_golden_file(capsys, fixtures_dir):
    code, out = run(capsys, "enumerate", "--chain", "5", "--census")
    assert code == 0
    golden = (fixtures_dir / "census_chain5.json").read_text(encoding="utf-8")
    assert out == golden


def test_enumerate_poset_p_census_matches_golden_file(capsys, fixtures_dir, tmp_path):
    # 442 / 65 / 0 / 0, 268 up to automorphism: the non-chain census
    path = write_poset(tmp_path / "poset_p.json", POSET_P)
    code, out = run(capsys, "enumerate", "--poset", str(path), "--census", "--distinct")
    assert code == 0
    golden = (fixtures_dir / "census_poset_p.json").read_text(encoding="utf-8")
    assert out == golden


def test_enumerate_poset_file(capsys, fixtures_dir):
    # reuse a lattice fixture as a poset source (mult is ignored)
    code, out = run_json(
        capsys,
        "enumerate",
        "--poset",
        str(fixtures_dir / "chain3_nil.json"),
        "--census",
    )
    assert code == 0
    assert out["total_structures"] == 2


def test_enumerate_emit_representatives(capsys, tmp_path):
    outdir = tmp_path / "reps"
    code, out = run_json(
        capsys,
        "enumerate",
        "--chain",
        "3",
        "--census",
        "--emit-representatives",
        str(outdir),
    )
    assert code == 0
    assert out["representatives_files"] == ["structure_001.json", "structure_002.json"]
    from sharplat import parse_lattice

    for name in out["representatives_files"]:
        parse_lattice(json.loads((outdir / name).read_text(encoding="utf-8")))


def test_enumerate_audit_each_clean(capsys):
    code, out = run_json(
        capsys, "enumerate", "--chain", "4", "--census", "--audit-each"
    )
    assert code == 0
    assert out["total_structures"] == 6


@pytest.mark.parametrize("census", [[], ["--census"]])
def test_enumerate_audit_each_reports_falsified_claim(capsys, monkeypatch, census):
    # forcing the sharpness antecedent to true trips the maximal-square-gap
    # claim on the all-nil 4-chain, the first structure in table order
    from sharplat import predicates
    from sharplat.core import FiniteMultLattice

    monkeypatch.setattr(predicates, "is_sharp", lambda L: True)
    code, out = run_json(capsys, "enumerate", "--chain", "4", "--audit-each", *census)
    assert code == 3
    assert out["error"] == "ClaimFalsified"
    assert out["claim"] == "maximal_square_gap"
    assert out["witness"] == [2, 1]
    nil = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]]
    expected = FiniteMultLattice(enumeration.chain_poset(4), nil).serialize()
    assert out["lattice"] == expected


def test_enumerate_audit_each_reports_a_claim_without_a_witness(capsys, monkeypatch):
    # a lying "not sharp" falsifies sharp_iff_all_principal on the first
    # sharp 5-chain, a conclusion that names no element: witness []
    from sharplat import predicates

    monkeypatch.setattr(predicates, "is_sharp", lambda L: False)
    code, out = run_json(capsys, "enumerate", "--chain", "5", "--audit-each")
    assert code == 3
    assert out["error"] == "ClaimFalsified"
    assert out["claim"] == "sharp_iff_all_principal"
    assert out["witness"] == []


@pytest.mark.parametrize("census", [[], ["--census"]])
def test_enumerate_emit_keeps_files_written_before_a_falsified_claim(
    capsys, monkeypatch, tmp_path, census
):
    # each representative is written as its structure arrives, with or
    # without the census, so a claim falsified at the third structure
    # leaves the first two files
    from sharplat.errors import ClaimFalsified

    audited = []

    def audit(L):
        audited.append(L)
        if len(audited) == 3:
            exc = ClaimFalsified("forced", witness=(1,))
            exc.lattice_document = L.serialize()
            raise exc

    monkeypatch.setattr(enumeration, "audit_structure", audit)
    outdir = tmp_path / "reps"
    code, out = run_json(
        capsys,
        "enumerate",
        "--chain",
        "4",
        "--audit-each",
        *census,
        "--emit-representatives",
        str(outdir),
    )
    assert code == 3
    assert (out["error"], out["claim"], out["witness"]) == ("ClaimFalsified", "forced", [1])
    assert out["lattice"] == audited[2].serialize()
    names = ["structure_001.json", "structure_002.json"]
    assert sorted(p.name for p in outdir.iterdir()) == names
    for name, L in zip(names, audited):
        text = (outdir / name).read_text(encoding="utf-8")
        assert text == json.dumps(L.serialize(), indent=2) + "\n"


def test_enumerate_emit_writes_the_shipped_fixture_bytes(capsys, tmp_path, fixtures_dir):
    # one writer makes the representatives and the gallery: the sharp
    # structures on the 5-chain, in table order, are the shipped
    # sharp_chain5 fixtures byte for byte
    from sharplat import parse_lattice, predicates

    code, out = run_json(
        capsys, "enumerate", "--chain", "5", "--emit-representatives", str(tmp_path)
    )
    assert code == 0 and len(out["representatives_files"]) == 22
    texts = [(tmp_path / name).read_text(encoding="utf-8") for name in out["representatives_files"]]
    sharp = [t for t in texts if predicates.is_sharp(parse_lattice(json.loads(t)))]
    shipped = [
        (fixtures_dir / f"sharp_chain5_{k:02d}.json").read_text(encoding="utf-8")
        for k in range(1, 14)
    ]
    assert sharp == shipped


@pytest.mark.parametrize("census", [[], ["--census"]])
def test_enumerate_emit_on_a_poset_with_no_structure(capsys, tmp_path, census):
    # the five-element diamond M3 carries no structure: nothing is written,
    # but the directory is still made
    path = write_poset(tmp_path / "m3.json", enumeration.diamond_poset(3))
    outdir = tmp_path / "reps"
    code, out = run_json(
        capsys, "enumerate", "--poset", str(path), *census, "--emit-representatives", str(outdir)
    )
    assert code == 0
    assert out["total_structures"] == 0
    assert out["representatives_files"] == []
    assert outdir.is_dir() and not any(outdir.iterdir())


def test_enumerate_census_emit_memory_does_not_grow_with_structure_count(
    capsys, tmp_path
):
    # the 2,386 chain-8 documents are written as they arrive, never held
    # together: this traced 1.1 MB, and collecting them first 6.9 MB
    tracemalloc.start()
    try:
        code = main(
            ["enumerate", "--chain", "8", "--census", "--emit-representatives", str(tmp_path)]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["total_structures"] == len(out["representatives_files"]) == 2386
    assert peak < 2_000_000


def test_enumerate_size_too_small(capsys):
    code, out = run_json(capsys, "enumerate", "--chain", "1", "--census")
    assert code == 2
    assert out["error"] == "SizeTooSmall"


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--chain", "5", "--censu"])
    assert err.value.code == 2


def _raise_from_report(error):
    def sharpness_report(L):
        raise error

    return sharpness_report


# a, b < c: every pair has an upper bound, but a and b have no lower one
_NO_BOTTOM = {
    "elements": ["a", "b", "c"],
    "leq": [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
    "mult": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
}


# a duplicated name and a non-antisymmetric order (0 and 1 are mutually
# below each other): the schema fault is reported, not the order's
_DUPLICATE_AND_CYCLE = {
    "elements": ["0", "0", "1"],
    "leq": [[1, 1, 1], [1, 1, 1], [0, 0, 1]],
    "mult": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
}


# fixtures/chain2.json as one JSON string value
_CHAIN2_TEXT = (REPO_ROOT / "fixtures" / "chain2.json").read_text(encoding="utf-8")
_NOT_AN_OBJECT = {
    "error": "BadSchema", "witness": None, "detail": "document must be a JSON object",
}


@pytest.mark.parametrize(
    "document, patch, code, payload",
    [
        (None, None, 2, "io"),
        (_NO_BOTTOM, None, 2, {
            "error": "NotALattice",
            "witness": [0, 1],
            "detail": "(0, 1) has no lower bound",
        }),
        ({"elements": ["0", "1"], "leq": [[1, 1], [0, 1]]}, None, 2, {
            "error": "BadSchema", "witness": None, "detail": 'missing "mult"',
        }),
        (_DUPLICATE_AND_CYCLE, None, 2, {
            "error": "BadSchema", "witness": None, "detail": "element names are not distinct",
        }),
        # a JSON string is decoded once, not read as a second document
        (_CHAIN2_TEXT, None, 2, _NOT_AN_OBJECT),
        ("x", None, 2, _NOT_AN_OBJECT),
        (Path("chain3_nil.json"), InternalEquivalenceViolation(
            "sharpness checks disagree: definition=True residual_identity=False "
            "divides=True restricted_divides=True", witness=(1, 2),
        ), 3, {
            "error": "InternalEquivalenceViolation",
            "witness": [1, 2],
            "detail": "sharpness checks disagree: definition=True "
            "residual_identity=False divides=True restricted_divides=True",
        }),
        (Path("chain3_nil.json"), InternalValidationFailure(
            "projection not idempotent at 1"
        ), 3, {
            "error": "InternalValidationFailure",
            "witness": None,
            "detail": "projection not idempotent at 1",
        }),
    ],
    ids=[
        "missing-file", "not-a-lattice", "bad-schema", "schema-before-axioms",
        "string-document", "string",
        "equivalence", "validation",
    ],
)
def test_main_error_payloads(
    capsys, monkeypatch, tmp_path, fixtures_dir, document, patch, code, payload
):
    from sharplat import predicates

    if isinstance(document, Path):
        path = fixtures_dir / document
    else:
        path = tmp_path / "input.json"
        if document is not None:
            path.write_text(json.dumps(document), encoding="utf-8")
    if payload == "io":
        with pytest.raises(OSError) as missing:
            path.read_text(encoding="utf-8")
        payload = {"valid": False, "stage": "io", "detail": str(missing.value)}
    if patch is not None:
        monkeypatch.setattr(predicates, "sharpness_report", _raise_from_report(patch))
    assert_payload(capsys, ["report", str(path), "--sharp"], code, payload)
    if payload.get("error") == "BadSchema":
        schema = {"valid": False, "stage": "schema", "detail": payload["detail"]}
        assert_payload(capsys, ["validate", str(path)], code, schema)


@pytest.mark.parametrize("below", [[], ["sub"]], ids=["file", "under-a-file"])
@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--chain", "4", "--census", "--emit-representatives"], ["gallery", "--out"]],
    ids=["enumerate", "gallery"],
)
def test_main_output_io_error_payloads(capsys, tmp_path, argv, below):
    # an output directory that cannot be made is an I/O failure, exit 2
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    target = taken.joinpath(*below)
    with pytest.raises(OSError) as failure:
        target.mkdir(parents=True, exist_ok=True)
    payload = {"valid": False, "stage": "io", "detail": str(failure.value)}
    assert_payload(capsys, [*argv, str(target)], 2, payload)


def test_commands_return_their_document(capsys, fixtures_dir):
    # a command prints nothing: main renders the document it returns
    args = cli.build_parser().parse_args(["validate", str(fixtures_dir / "chain2.json")])
    assert args.func(args) == ({"valid": True, "elements": ["0", "1"], "size": 2}, 0)
    assert capsys.readouterr().out == ""


def test_closed_stdout_is_not_an_input_failure(tmp_path):
    # the reader takes 10 bytes of the 16 KB gallery and leaves while the
    # child is still writing (the pipe holds one page where the platform
    # can size it): no "io" payload, no chained traceback, exit 141
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    try:
        import fcntl

        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    except (ImportError, AttributeError):
        pass
    with open(tmp_path / "stderr", "w+b") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "sharplat.cli", "gallery", "--pretty"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=err,
        )
        os.close(write_end)
        assert os.read(read_end, 10)
        os.close(read_end)
        code = child.wait(timeout=60)
        err.seek(0)
        stderr = err.read().decode()
    assert "During handling of the above exception" not in stderr
    assert '"stage"' not in stderr
    assert (code, stderr) == (cli.EXIT_CLOSED_STDOUT, "")


# -- exemplars ----------------------------------------------------------


def test_exemplars_zminus(capsys):
    code, out = run_json(capsys, "exemplars", "--model", "zminus")
    assert code == 0
    assert out["failures"] == 0


def test_exemplars_r1_seeded(capsys):
    code, out = run_json(
        capsys, "exemplars", "--model", "r1", "--trials", "1000", "--seed", "42"
    )
    assert code == 0
    assert out["failures"] == 0
    assert out["trials"] == 1000


def test_exemplars_nideal_prints_witness(capsys):
    code, out = run_json(capsys, "exemplars", "--model", "nideal")
    assert code == 0  # the not-sharp outcome is the expected result
    assert out["sharp_identity_holds"] is False
    assert out["witness"] == 4


@pytest.mark.parametrize("model", ["zminus", "r1", "nideal"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_exemplars_rejects_trials_below_one(capsys, model, trials):
    with pytest.raises(SystemExit) as err:
        main(["exemplars", "--model", model, "--trials", trials])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_exemplars_runs_a_single_trial(capsys):
    code, out = run_json(capsys, "exemplars", "--model", "r1", "--trials", "1")
    assert code == 0
    assert out["trials"] == 1 and sum(out["kind_pairs"].values()) == 1
    code, out = run_json(capsys, "exemplars", "--model", "zminus", "--trials", "1")
    assert code == 0
    assert out["trials"] == 9  # exponents 0 and 1 plus the bottom: 3 x 3 pairs


def test_exemplars_bottom_witness_is_valid_json(capsys, monkeypatch):
    # a residual that wrongly returns the bottom for a bottom divisor
    # makes witnesses that name the bottom's exponent
    exact = exemplars.z_residual

    def bottom_for_bottom(a, b):
        return exemplars.Z_BOTTOM if b.is_bottom() else exact(a, b)

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    monkeypatch.setattr(exemplars, "z_residual", bottom_for_bottom)
    code, out = run(capsys, "exemplars", "--model", "zminus", "--trials", "1")
    report = json.loads(out, parse_constant=reject)
    assert code == 1 and report["failures"] > 0
    assert ["sharp_identity", 0, None] in report["witnesses"]


def test_exemplars_match_golden_file(capsys, fixtures_dir):
    # stdout and exit code byte for byte, at the benchmark's trial counts,
    # at the defaults and at a single trial for each model
    golden = json.loads(
        (fixtures_dir / "exemplars_golden.json").read_text(encoding="utf-8")
    )
    assert len(golden) == 13
    for name, case in golden.items():
        code, out = run(capsys, "exemplars", *case["argv"])
        assert code == case["exit_code"], name
        assert out == case["stdout"], name


def test_exemplars_deterministic(capsys):
    _, first = run(capsys, "exemplars", "--model", "r1", "--seed", "9")
    _, second = run(capsys, "exemplars", "--model", "r1", "--seed", "9")
    assert first == second


# -- gallery ------------------------------------------------------------


def test_gallery_matches_shipped_fixtures(capsys, tmp_path, fixtures_dir):
    outdir = tmp_path / "gal"
    code, out = run_json(capsys, "gallery", "--out", str(outdir))
    assert code == 0
    assert len(out["written"]) == 18  # 5 named + 13 sharp five-chains
    for name in out["written"]:
        generated = (outdir / name).read_text(encoding="utf-8")
        shipped = (fixtures_dir / name).read_text(encoding="utf-8")
        assert generated == shipped, name


def test_gallery_stdout_mode(capsys):
    code, out = run_json(capsys, "gallery")
    assert code == 0
    assert "nonsharp5" in out["gallery"]
    assert "sharp_chain5_13" in out["gallery"]


def test_pretty_flag(capsys, fixtures_dir):
    code, out = run(capsys, "validate", str(fixtures_dir / "chain2.json"), "--pretty")
    assert code == 0
    assert out.startswith("{\n")


# -- runtime dependencies -----------------------------------------------


def test_runtime_imports_only_the_standard_library():
    # without site-packages on the path, importing the package and its
    # CLI loads no module from outside the standard library
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "import sharplat, sharplat.cli\n"
        "print('\\n'.join(sorted({m.partition('.')[0] for m in sys.modules})))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    loaded = set(result.stdout.split())
    assert "sharplat" in loaded
    assert loaded - {"sharplat", "__main__"} <= sys.stdlib_module_names
