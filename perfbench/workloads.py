"""The benchmark's workloads: seeded job lists and the verdict of each job.

A workload is a list of slots. A slot fixes a family, a rank, a word length
and the calls made on one word; the seed draws that word from the slot's
pool. The pool holds the words whose recorded work counters equal those of
the slot's reference word, so that runs with different seeds do the same
counted work and their timings can be compared.

Jobs reach polyreal only through its public functions: ``cli.main``,
``verify.check_*`` and ``enumerate_image``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import polyreal
from polyreal import verify

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Call:
    """One public entry point and its keyword arguments at each size."""

    api: str
    full: Tuple[Tuple[str, object], ...] = ()
    tiny: Tuple[Tuple[str, object], ...] = ()

    def kwargs(self, size: str) -> dict:
        return dict(self.full if size == "full" else self.tiny)

    def label(self, size: str) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.kwargs(size).items())
        return f"{self.api}({args})"


@dataclass(frozen=True)
class Slot:
    family: str
    n: int
    reference: Tuple[int, ...]
    calls: Tuple[Call, ...]

    def words(self) -> List[Tuple[int, ...]]:
        """Every adapted, non-periodic word of the reference word's length."""
        length = len(self.reference)
        if length == self.n:
            return list(itertools.permutations(range(1, self.n + 1)))
        system = polyreal.build_root_system(polyreal.AlgebraType(self.family, self.n))
        out = []
        for word in itertools.product(range(1, self.n + 1), repeat=length):
            if any(word == word[:d] * (length // d) for d in range(1, length) if length % d == 0):
                continue
            try:
                polyreal.build_adapted(system, word)
            except polyreal.RootDataError:
                continue
            out.append(word)
        return out


@dataclass(frozen=True)
class Job:
    id: str
    workload: str
    family: str
    n: int
    word: Tuple[int, ...]
    call: Call
    size: str

    def describe(self) -> dict:
        return {
            "id": self.id,
            "family": self.family,
            "n": self.n,
            "word": list(self.word),
            "call": self.call.label(self.size),
        }


def _cli() -> Call:
    """polyreal verify --json at default bounds; the tiny size lowers every bound."""
    return Call("cli.verify", (), (("argv", ("--depth", "2", "--w", "2", "--size", "2")),))


def _image_slot(n: int, reference: Tuple[int, ...], weight: int) -> Slot:
    call = Call("check_image_equality", (("max_weight", weight),), (("max_weight", 3),))
    return Slot("A1", n, reference, (call,))


def _crystal_slot(n: int, api: str, bound: str, full: int) -> Slot:
    call = Call(api, ((bound, full),), ((bound, 3),))
    return Slot("A1", n, (2, 1) + tuple(range(3, n + 1)), (call,))


def _steps_and_closures(family: str) -> Slot:
    # index_bound = L * (depth + 2) is closure's own default; the narrower
    # L * 6 that check_closure_equality uses by default fails C1 n=4 at
    # depth 12 (see NOTES.md, known defect).
    n = 4
    steps = Call(
        "check_step_identities",
        (("size_bound", 8), ("wall_halves", 20)),
        (("size_bound", 3), ("wall_halves", 6)),
    )
    closures = tuple(
        Call(
            "check_closure_equality",
            (("k", k), ("depth", 12), ("index_bound", n * 14)),
            (("k", k), ("depth", 3), ("index_bound", n * 5)),
        )
        for k in range(1, n + 1)
    )
    return Slot(family, n, (2, 1, 3, 4), (steps,) + closures)


# Why each workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS: Dict[str, Tuple[Slot, ...]] = {
    "verify-cli": (
        Slot("A1", 2, (1, 2), (_cli(),)),
        Slot("A1", 3, (2, 1, 3), (_cli(),)),
        Slot("C1", 3, (2, 1, 3), (_cli(),)),
        Slot("A2", 3, (2, 1, 3), (_cli(),)),
        Slot("D2", 3, (2, 1, 3), (_cli(),)),
        Slot("A1", 4, (2, 1, 3, 4), (_cli(),)),
        Slot("C1", 4, (2, 1, 3, 4), (_cli(),)),
        Slot("A2", 4, (2, 1, 3, 4), (_cli(),)),
        Slot("D2", 4, (2, 1, 3, 4), (_cli(),)),
        Slot("C1", 3, (2, 1, 3, 2, 3, 1), (_cli(),)),
    ),
    "image-deep": (
        _image_slot(2, (1, 2), 7),
        _image_slot(3, (2, 1, 3), 5),
        _image_slot(4, (2, 1, 3, 4), 4),
    ),
    "crystal-deep": (
        _crystal_slot(5, "enumerate_image", "max_word_length", 8),
        _crystal_slot(4, "enumerate_image", "max_word_length", 9),
        _crystal_slot(4, "check_crystal_axioms", "depth", 6),
        _crystal_slot(3, "check_crystal_axioms", "depth", 8),
    ),
    "generators-deep": tuple(_steps_and_closures(f) for f in ("A1", "C1", "A2", "D2")),
}


def job_id(workload: str, family: str, n: int, word, call: Call, size: str) -> str:
    return f"{workload}/{family}/n{n}/{','.join(map(str, word))}/{call.label(size)}/{size}"


def slot_jobs(workload: str, slot: Slot, word, size: str) -> List[Job]:
    return [
        Job(job_id(workload, slot.family, slot.n, word, c, size), workload, slot.family, slot.n,
            tuple(word), c, size)
        for c in slot.calls
    ]


def pool(workload: str, slot: Slot, size: str, expected: dict) -> List[Tuple[int, ...]]:
    """Words of the slot whose recorded counters equal the reference word's."""

    def work(word):
        return [expected[j.id]["counts"] for j in slot_jobs(workload, slot, word, size)]

    target = work(slot.reference)
    return [w for w in slot.words() if work(w) == target]


def draw_jobs(workload: str, seed: int, size: str, expected: dict) -> List[Job]:
    """The job list of one run: one word per slot, drawn from the slot's pool."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Job] = []
    for slot in WORKLOADS[workload]:
        word = rng.choice(pool(workload, slot, size, expected))
        jobs.extend(slot_jobs(workload, slot, word, size))
    return jobs


def build_sequence(job: Job) -> polyreal.AdaptedSequence:
    system = polyreal.build_root_system(polyreal.AlgebraType(job.family, job.n))
    return polyreal.build_adapted(system, job.word)


def cli_argv(job: Job) -> List[str]:
    word = ",".join(map(str, job.word))
    argv = ["verify", "--json", "--family", job.family, "--n", str(job.n), "--word", word]
    return argv + list(job.call.kwargs(job.size).get("argv", ()))


def invoke(job: Job, seq: Optional[polyreal.AdaptedSequence]):
    """Run the job's public call; this is the only part a pass times."""
    kwargs = job.call.kwargs(job.size)
    if job.call.api == "cli.verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = polyreal.cli.main(cli_argv(job))
        return code, out.getvalue()
    if job.call.api == "enumerate_image":
        return polyreal.enumerate_image(seq, **kwargs)
    return getattr(verify, job.call.api)(seq, **kwargs)


def verdict(job: Job, result) -> dict:
    """Status, work counters and a digest of both, plus the element set for enumerations."""
    digest = hashlib.sha256()
    if job.call.api == "cli.verify":
        code, text = result
        reports = json.loads(text)
        status = f"exit {code}"
        counts: Dict[str, int] = {}
        for r in reports:
            for key, value in r["counts"].items():
                name = f"{r['check']}.{key}"
                counts[name] = counts.get(name, 0) + value
            digest.update(json.dumps([r["check"], r["status"], r["counts"]], sort_keys=True).encode())
    elif job.call.api == "enumerate_image":
        status = "ok"
        counts = {"enumerate.elements": len(result)}
        for a in sorted(result, key=polyreal.LatticeElement.items):
            digest.update(repr(a.items()).encode())
    else:
        status = result.status
        counts = {f"{result.check}.{k}": v for k, v in result.counts.items()}
    digest.update(json.dumps([status, counts], sort_keys=True).encode())
    return {"status": status, "counts": counts, "digest": digest.hexdigest()[:16]}
