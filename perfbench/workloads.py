"""The benchmark's workloads.

A workload builds its inputs in ``setup`` (the runner times this),
runs one pass of operations in ``run_pass``, and checks after the
timed passes, in ``verify``, what could not be checked inline.  Every
operation is an item: its latency goes to the runner's ``Ledger`` and
it counts as attempted; a nonzero exit, an exception or a wrong output
counts it as failed.

CLI calls go in-process through ``sharplat.cli.main(argv)`` with stdout
captured; library calls go through the package's public names.  Both
are looked up on the module at call time, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

import generators


class Ledger:
    """Item latencies and outcomes of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def item(self, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.latencies.append(seconds)


def call_cli(sharplat, argv: list[str]) -> tuple[int | None, str, float]:
    """Run the CLI in-process; returns (exit code, stdout, seconds).
    An exception escaping ``main`` is reported on stderr and gives exit
    code None."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = sharplat.cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buf.getvalue(), perf_counter() - start


def digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def parse_output(code: int | None, out: str) -> dict:
    """The JSON document a successful CLI call printed, else {}."""
    if code != 0:
        return {}
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return {}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class _Workload:
    def __init__(self, seed: int, workdir: Path, tiny: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.sharplat = None

    def rng(self, key: str) -> random.Random:
        return random.Random(f"{self.seed}:{key}")

    def fail(self, what: str) -> None:
        print(f"check failed: {what}", file=sys.stderr)

    def verify(self, ledger: Ledger) -> None:
        """Checks that need every pass's outputs; none by default."""


class _ReportChecks(_Workload):
    """Reports on shuffled documents, each checked after the timed
    passes against the report on the same document in canonical order
    and against the sharpness known for it."""

    def _add_report(self, key: str, doc: dict, flags: list[str]) -> None:
        directory = self.workdir / "docs"
        directory.mkdir(parents=True, exist_ok=True)
        shuffled = generators.shuffle(doc, self.rng(key))
        path = _write(directory / f"{key}.json", shuffled)
        ref = _write(directory / f"{key}.ref.json", generators.stable_topological(shuffled))
        self.reports.append((key, ["report", path, *flags], ["report", ref, *flags]))

    def _run_reports(self, ledger: Ledger) -> None:
        for key, argv, _ in self.reports:
            code, out, seconds = call_cli(self.sharplat, argv)
            self.outputs.setdefault(key, []).append(digest(out) if code == 0 else None)
            ledger.item(seconds, code == 0)

    def _fail_outputs(self, ledger: Ledger, key: str, unless: bytes | None = None) -> int:
        """Count as failed every attempt of ``key`` not failed yet whose
        output differs from ``unless``; returns how many."""
        seen = self.outputs.get(key, [])
        bad = [i for i, d in enumerate(seen) if d is not None and d != unless]
        for i in bad:
            seen[i] = None
        ledger.failed += len(bad)
        return len(bad)

    def _verify_reports(self, ledger: Ledger) -> dict[str, bool]:
        """Fail outputs that differ from the reference report; returns
        each report's sharpness as the reference gives it."""
        sharp = {}
        for key, argv, ref_argv in self.reports:
            code, out, _ = call_cli(self.sharplat, ref_argv)
            if code != 0:
                self.fail(f"{' '.join(ref_argv)} exited {code}")
                self._fail_outputs(ledger, key)
                continue
            if self._fail_outputs(ledger, key, unless=digest(out)):
                self.fail(f"{' '.join(argv)} differs from the canonical-order report")
            sharp[key] = parse_output(code, out).get("sharpness", {}).get("is_sharp")
        return sharp


class Census(_Workload):
    """``enumerate --chain 8 --census`` and ``enumerate --poset P
    --census --distinct``; the seed does not change the inputs."""

    name = "census"

    def setup(self, sharplat) -> None:
        self.sharplat = sharplat
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.tiny:
            golden = Path(__file__).resolve().parent.parent / "fixtures" / "census_chain5.json"
            self.items = [(["enumerate", "--chain", "5", "--census"], golden.read_text(encoding="utf-8"))]
            return
        doc = generators.poset_p()
        sharplat.parse_poset(doc)
        path = _write(self.workdir / "poset_p.json", doc)
        self.items = [
            (
                ["enumerate", "--chain", "8", "--census"],
                {"total_structures": 2386, "sharp_count": 422, "domain_count": 451,
                 "all_principal_count": 1},
            ),
            (
                ["enumerate", "--poset", path, "--census", "--distinct"],
                {"total_structures": 442, "sharp_count": 65, "domain_count": 0,
                 "all_principal_count": 0, "distinct_up_to_automorphism": 268},
            ),
        ]

    def run_pass(self, ledger: Ledger) -> None:
        for argv, expected in self.items:
            code, out, seconds = call_cli(self.sharplat, argv)
            if isinstance(expected, str):
                ok = code == 0 and out == expected
            else:
                got = parse_output(code, out)
                ok = all(got.get(k) == v for k, v in expected.items())
            if not ok:
                self.fail(f"{' '.join(argv[:3])}: exit {code}, output {out[-300:]!r}")
            ledger.item(seconds, ok)


class ReportSmall(_ReportChecks):
    """Full ``report`` on every structure on the 7-chain plus the
    gallery, each in a seeded element order."""

    name = "report-small"

    def setup(self, sharplat) -> None:
        self.sharplat = sharplat
        self.reports, self.outputs = [], {}
        n = 5 if self.tiny else 7
        self.chain_size = n
        self.expected_chain = {5: (22, 13), 7: (451, 123)}[n]
        structures = sharplat.enumerate_structures(sharplat.chain_poset(n))
        for k, L in enumerate(structures):
            self._add_report(f"chain{n}_{k:03d}", L.serialize(), [])
        for name, doc in sharplat.gallery.gallery_documents().items():
            self._add_report(f"gallery_{name}", doc, [])

    def run_pass(self, ledger: Ledger) -> None:
        self._run_reports(ledger)

    def verify(self, ledger: Ledger) -> None:
        sharp = self._verify_reports(ledger)
        chain = [k for k, _, _ in self.reports if k.startswith("chain")]
        got = (len(chain), sum(1 for k in chain if sharp.get(k)))
        if got != self.expected_chain:
            self.fail(f"{self.chain_size}-chain structures / sharp: {got}, expected {self.expected_chain}")
            for key in chain:
                self._fail_outputs(ledger, key)
        for key, _, _ in self.reports:
            if key.startswith("gallery_") and key in sharp:
                if sharp[key] != (key != "gallery_nonsharp5"):
                    self.fail(f"{key}: is_sharp {sharp[key]}")
                    self._fail_outputs(ledger, key)


class ReportLarge(_ReportChecks):
    """Reports on a few large lattices, then ``localize`` at every prime
    and ``quotient`` at every non-top element of each."""

    name = "report-large"

    def setup(self, sharplat) -> None:
        self.sharplat = sharplat
        self.reports, self.outputs = [], {}
        if self.tiny:
            chains, sharp_only, factor, nil = (6, 8), 10, 3, 6
        else:
            chains, sharp_only, factor, nil = (16, 20, 21), 32, 5, 32
        # (key, document, report flags, sharp by construction,
        #  localization size at each prime by construction)
        inputs = [
            (f"valuation{n}", generators.valuation_chain(n), [], True, n)
            for n in chains
        ]
        inputs.append(
            (f"valuation{sharp_only}", generators.valuation_chain(sharp_only), ["--sharp"],
             True, sharp_only)
        )
        chain = generators.valuation_chain(factor)
        inputs.append((f"product{factor}x{factor}", generators.product(chain, chain), [], True, factor))
        inputs.append((f"nil{nil}", generators.nil_chain(nil), [], False, nil))
        self.known_sharp = {}
        self.constructions = []
        for key, doc, flags, sharp, local_size in inputs:
            self._add_report(key, doc, flags)
            self.known_sharp[key] = sharp
            L = sharplat.parse_lattice(generators.shuffle(doc, self.rng(key + ":library")))
            names, leq = doc["elements"], doc["leq"]
            for p in generators.primes(doc):
                self.constructions.append(("localize", L, L.id_of(names[p]), local_size))
            for a in range(len(names) - 1):
                above = sum(leq[a])
                self.constructions.append(("quotient", L, L.id_of(names[a]), above))

    def run_pass(self, ledger: Ledger) -> None:
        self._run_reports(ledger)
        sharplat = self.sharplat
        for op, L, x, size in self.constructions:
            start = perf_counter()
            try:
                result = getattr(sharplat, op)(L, x)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            seconds = perf_counter() - start
            ok = result is not None and result.lattice.size == size
            if not ok:
                self.fail(f"{op} at {L.names[x]!r} of a {L.size}-element lattice")
            ledger.item(seconds, ok)

    def verify(self, ledger: Ledger) -> None:
        sharp = self._verify_reports(ledger)
        for key, known in self.known_sharp.items():
            if key in sharp and sharp[key] != known:
                self.fail(f"{key}: is_sharp {sharp[key]}, expected {known}")
                self._fail_outputs(ledger, key)


class Exemplars(_Workload):
    """The three exemplar self-tests, seeded by the workload seed."""

    name = "exemplars"

    def setup(self, sharplat) -> None:
        self.sharplat = sharplat
        seed = str(self.seed)
        trials = (20, 200, 10) if self.tiny else (1000, 20000, 300)
        self.items = [
            ["exemplars", "--model", "nideal", "--trials", str(trials[0]), "--seed", seed],
            ["exemplars", "--model", "r1", "--trials", str(trials[1]), "--seed", seed],
            ["exemplars", "--model", "zminus", "--trials", str(trials[2])],
        ]
        self.first = {}

    def run_pass(self, ledger: Ledger) -> None:
        for argv in self.items:
            model = argv[2]
            code, out, seconds = call_cli(self.sharplat, argv)
            report = parse_output(code, out)
            if model == "nideal":
                ok = report.get("expected_outcome_confirmed") is True
            else:
                ok = report.get("failures") == 0
            if "--seed" in argv:
                ok = ok and report.get("seed") == self.seed
            # the same seed must give the same report on every pass
            ok = ok and self.first.setdefault(model, out) == out
            if not ok:
                self.fail(f"exemplars {model}: exit {code}, output {out[:300]!r}")
            ledger.item(seconds, ok)


WORKLOADS = {w.name: w for w in (Census, ReportSmall, ReportLarge, Exemplars)}
