"""The gluesem benchmark.

    python3 bench/run.py --workload corpus|scope|modifiers --seed N
                         --seconds S --trace 0|1

Run from any directory; paths resolve against the checkout this file is in.
Each workload is a closed loop: one client, one sentence at a time, whole
passes over the workload's inputs until S seconds have gone by.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run (see tracing.py).  The last line of
standard output is one JSON object; the lines before it are the same
figures for people.  Exit status: 0 when every output matched its
reference, 1 when one did not (no timing is reported then), 2 when the
program to measure is missing.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LEXICON = "corpus/lexicon.glue"
MODIFIER = "bench/indeed.glue"

# The corpus f-structures with the flags their goldens were made with, and
# the CLI exit code each expects.
CORPUS = [
    ("bah", (), 0),
    ("convince-every-voter", ("--extensional",), 0),
    ("every-candidate-a-manager", ("--extensional",), 0),
    ("admirer-of-his", (), 0),
    ("seeks-al", (), 0),
    ("seeks-a-unicorn", (), 0),
    ("conversation-every-unicorn", (), 0),
    ("john-devoured", (), 2),
    ("john-arrived-bill-the-sink", (), 2),
]
MODIFIER_COUNTS = (1, 2, 3)

# One scope pass: k nested quantified obliques, k=1 and k=2 twice each so
# that a pass is short enough for 100 sentences a run.  p50 falls on k=2
# and p90 in the middle of the k=3 sentences.
SCOPE_MIX = (1, 1, 2, 2, 3)
DETERMINERS = ("a", "every", "the")
NOUNS = ("unicorn", "voter", "candidate", "manager", "sink")

# The CLI as its console script runs it.
CLI_ENTRY = "import sys; from gluesem.cli import main; sys.exit(main())"
SETUP_CODE = """\
import gluesem
for paths, extensional in {loads!r}:
    text = "".join(open(p, encoding="utf-8").read() for p in paths)
    gluesem.parse_lexicon(text, extensional)
"""
IMPORT_CODE = """\
import time
t = time.perf_counter()
import gluesem
print(time.perf_counter() - t)
"""
STARTUP_SAMPLES = 5

# The reference work's median time on the baseline host (see HostClock).
REFERENCE_S = 0.004


@dataclass(frozen=True)
class Sentence:
    shape: str  # the input up to the seeded choices, e.g. "k2" or "bah+3"
    extensional: bool = False
    fstr: str = ""  # f-structure text (library workloads)
    argv: tuple[str, ...] = ()  # CLI arguments (corpus)
    mods: int = 0  # identity modifiers added at the root
    want: object = None  # the reference the output is checked against


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def golden(name: str) -> str:
    return (ROOT / "corpus" / "golden" / f"{name}.out").read_text(encoding="utf-8")


def golden_readings(name: str) -> list[str]:
    return golden(name).splitlines()[:-1]  # drop the "readings: N" line


def scope_fstructure(dets: list[str], noun: str) -> str:
    """Bill seeks D0 conversation with D1 conversation with ... Dk noun."""
    k = len(dets) - 1
    inner = f'(fstruct n{k} (SPEC "{dets[k]}") (PRED "{noun}"))'
    for i in reversed(range(k)):
        inner = (
            f'(fstruct n{i} (SPEC "{dets[i]}") (PRED "conversation")\n'
            f"  (OBL-WITH {inner}))"
        )
    return f'(fstruct f (PRED "seek")\n  (SUBJ (fstruct g (PRED "Bill")))\n  (OBJ {inner}))\n'


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A seeded source of passes over one set of inputs; each subclass also
    checks its outputs against references the engine does not produce."""

    name = ""
    # (lexicon files concatenated, extensional) for every variant used
    loads: list[tuple[list[str], bool]] = [([LEXICON], False)]

    def make_pass(self, rng: random.Random) -> list[Sentence]:
        raise NotImplementedError


class Scope(Workload):
    """Nested-oblique scope family: every proof is a distinct reading."""

    name = "scope"

    def make_pass(self, rng):
        out = []
        for k in SCOPE_MIX:
            dets = [rng.choice(DETERMINERS) for _ in range(k + 1)]
            text = scope_fstructure(dets, rng.choice(NOUNS))
            out.append(Sentence(f"k{k}", fstr=text, want=catalan(k + 2)))
        rng.shuffle(out)
        return out

    def check(self, s, texts, exhausted):
        return not exhausted and len(set(texts)) == len(texts) == s.want


class Modifiers(Workload):
    """Corpus sentences with identity modifiers: proofs outnumber readings."""

    name = "modifiers"
    loads = [([LEXICON, MODIFIER], False), ([LEXICON, MODIFIER], True)]

    def make_pass(self, rng):
        out = []
        for name, flags, code in CORPUS:
            if code != 0:
                continue
            text = (ROOT / "corpus" / f"{name}.fstr").read_text(encoding="utf-8")
            for m in MODIFIER_COUNTS:
                out.append(
                    Sentence(
                        f"{name}+{m}",
                        extensional="--extensional" in flags,
                        fstr=text,
                        mods=m,
                        want=golden_readings(name),
                    )
                )
        rng.shuffle(out)
        return out

    def check(self, s, texts, exhausted):
        return not exhausted and texts == s.want


class Corpus(Workload):
    """The paper's examples through the `glue` CLI, one process each."""

    name = "corpus"
    loads = [([LEXICON], False), ([LEXICON], True)]

    def make_pass(self, rng):
        out = [
            Sentence(
                name,
                argv=("readings", "--fstructure", f"corpus/{name}.fstr", "--lexicon", LEXICON)
                + flags,
                want=(code, golden(name)),
            )
            for name, flags, code in CORPUS
        ]
        out.append(
            Sentence(
                "type-raising",
                argv=("prove", "--lexicon", LEXICON, "--formula", "corpus/type-raising.glue"),
                want=(0, golden("type-raising")),
            )
        )
        rng.shuffle(out)
        return out

    def check(self, s, code, out):
        return (code, out) == s.want


WORKLOADS = {w.name: w for w in (Corpus(), Scope(), Modifiers())}


# ---------------------------------------------------------------------------
# Running one sentence.  Each returns (output matched, readings delivered,
# peak RSS in KiB of the child process that ran it, or 0 if none did).


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_readings(code: int, out: str) -> int:
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    return int(last.split(": ")[1]) if code == 0 and last.startswith("readings: ") else 0


def run_cli_process(w: Workload, s: Sentence, env) -> tuple[bool, int, int]:
    with subprocess.Popen(
        [sys.executable, "-c", CLI_ENTRY, *s.argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    ) as p:
        out = p.stdout.read().decode("utf-8")
        # reap the child here, for its own resource usage
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return w.check(s, p.returncode, out), cli_readings(p.returncode, out), usage.ru_maxrss


def run_cli_inprocess(w: Workload, s: Sentence) -> tuple[bool, int, int]:
    from gluesem import cli

    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        code = cli.main(list(s.argv))
    out = buf.getvalue()
    return w.check(s, code, out), cli_readings(code, out), 0


def load_lexicons(w: Workload) -> dict[bool, object]:
    from gluesem import glue

    out = {}
    for paths, extensional in w.loads:
        text = "".join((ROOT / p).read_text(encoding="utf-8") for p in paths)
        out[extensional] = glue.parse_lexicon(text, extensional)
    return out


def run_library(w: Workload, s: Sentence, lexicons) -> tuple[bool, int, int]:
    """F-structure text to sorted, printed readings, as `glue readings` does
    it, plus `s.mods` identity modifiers instantiated at the root."""
    from gluesem import fstruct, glue, prover, terms

    lexicon = lexicons[s.extensional]
    doc = fstruct.parse_fstructure(s.fstr)
    prems = glue.premises(doc, lexicon)
    if s.mods:
        (indeed,) = [e for e in lexicon.entries if e.headword == "indeed"]
        for _ in range(s.mods):
            formula = glue.instantiate(indeed, doc.root, doc)
            prems.append(glue.Premise("indeed", doc.root.label, formula))
    goal = fstruct.SemStruct(doc.root.label, fstruct.ROOT)
    result = prover.enumerate_readings(prems, goal)
    texts = [terms.print_term(r.term) for r in result.readings]
    return w.check(s, texts, result.stats.exhausted), len(texts), 0


def guarded(fn, *args) -> tuple[bool, int, int]:
    """A sentence that raises is a failed sentence, not a failed run."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return False, 0, 0


# ---------------------------------------------------------------------------
# Measurements


def spawn(code: str, env) -> None:
    """A fresh interpreter running `code`."""
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)


def spawn_seconds(code: str, env) -> float:
    """Wall time of a fresh interpreter running `code`."""
    t0 = perf_counter()
    spawn(code, env)
    return perf_counter() - t0


def reference_work() -> int:
    """Fixed interpreter-bound work that never touches the package: build
    and walk trees of tuples and dicts, as the engine does with terms."""

    def build(depth, i):
        if depth == 0:
            return (i,)
        return (build(depth - 1, 2 * i), build(depth - 1, 2 * i + 1), {"k": i})

    def walk(t, env):
        if len(t) == 1:
            return env.get(t[0] % 13, 0) + t[0]
        return walk(t[0], env) ^ walk(t[1], env) + t[2]["k"]

    env = {i: i * i for i in range(13)}
    return sum(walk(build(9, j), env) for j in range(8))


class HostClock:
    """Times work in seconds at the baseline host's speed.

    The shared host changes speed by a third or more, for seconds at a
    time, so wall times of the same code differ that much between runs.
    The reference work runs right after every timed call; the call's wall
    time is scaled by REFERENCE_S over the mean of the reference times just
    before and just after it.  The reference is fixed, so a change to the
    package moves the scaled time as much as it moves the wall time."""

    def __init__(self):
        for _ in range(5):  # warm-up
            self.last = self.reference()
        self.wall: list[float] = []
        self.refs: list[float] = []

    @staticmethod
    def reference() -> float:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0

    def timed(self, fn, *args):
        """fn(*args) and its time in seconds at the baseline speed."""
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        ref = self.reference()
        scaled = wall * REFERENCE_S / ((self.last + ref) / 2)
        self.last = ref
        self.wall.append(wall)
        self.refs.append(ref)
        return out, scaled


class WallClock:
    """Times work in wall seconds (the traced run)."""

    @staticmethod
    def timed(fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        return out, perf_counter() - t0


class Tally:
    """Sentences attempted and failed, and the times of each input shape."""

    def __init__(self, clock=WallClock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.shapes: list[str] = []  # one per sentence run
        self.times: dict[str, list[float]] = {}
        self.readings: dict[str, int] = {}
        self.child_peak_kb = 0

    def run(self, s: Sentence, fn, *args) -> None:
        (ok, n, child_kb), dt = self.clock.timed(guarded, fn, *args)
        self.times.setdefault(s.shape, []).append(dt)
        self.shapes.append(s.shape)
        self.readings[s.shape] = n
        self.attempted += 1
        self.failed += not ok
        self.child_peak_kb = max(self.child_peak_kb, child_kb)


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[Tally, dict, HostClock]:
    """The untraced run, timed at the baseline host's speed.  One set-up
    sample follows each pass, so that both set-up and sentences are sampled
    across the whole run."""
    rng = random.Random(seed)
    env = child_env()
    setup_code = SETUP_CODE.format(loads=w.loads)
    spawn(setup_code, env)  # untimed: leaves the bytecode cache warm
    clock = HostClock()
    tally = Tally(clock)
    if isinstance(w, Corpus):
        run = lambda s: tally.run(s, run_cli_process, w, s, env)
    else:
        lexicons = load_lexicons(w)
        run = lambda s: tally.run(s, run_library, w, s, lexicons)
    setup = []
    deadline = perf_counter() + seconds
    pass_s = 0.0
    # a pass starts only if it should end by the deadline
    while not setup or perf_counter() + pass_s < deadline:
        t0 = perf_counter()
        for s in w.make_pass(rng):
            run(s)
        setup.append(clock.timed(spawn, setup_code, env)[1])
        pass_s = perf_counter() - t0

    # The host's speed swings between states for seconds at a time, so each
    # sentence counts at the median time of its input shape over the run;
    # percentiles and throughput are taken over the run's mix of shapes.
    typical = {shape: statistics.median(t) for shape, t in tally.times.items()}
    mix = sorted(typical[shape] for shape in tally.shapes)
    if isinstance(w, Corpus):
        peak_kb = tally.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "sentence_ms_p50": (statistics.median(mix) * 1e3, "ms"),
        "sentence_ms_p90": (statistics.quantiles(mix, n=10)[8] * 1e3, "ms"),
        "readings_per_s": (sum(tally.readings[s] for s in tally.shapes) / sum(mix), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, metrics, clock


def one_pass(w: Workload, sentences: list[Sentence], tally: Tally, tracer=None) -> float:
    """One pass in this process, traced when given a tracer; its wall time.
    The corpus goes through `gluesem.cli.main`, the others load their
    lexicons first."""
    span = tracer.span if tracer else lambda *a: nullcontext()
    t0 = perf_counter()
    with tracer.installed() if tracer else nullcontext():
        if isinstance(w, Corpus):
            lexicons = None
        else:
            with span("lexicons"):
                lexicons = load_lexicons(w)
        for i, s in enumerate(sentences):
            with span("sentence", i):
                if lexicons is None:
                    tally.run(s, run_cli_inprocess, w, s)
                else:
                    tally.run(s, run_library, w, s, lexicons)
    return perf_counter() - t0


def count_signature(tracer, summary, sentences: list[Sentence]) -> tuple:
    """Every count a traced pass made, independent of input order."""
    return (
        tuple(sorted((sentences[i].shape, *c) for i, c in tracer.by_request.items())),
        tuple(sorted((name, agg["calls"]) for name, agg in summary.items())),
        tuple(sorted(tracer.hits.items())),
        tuple(sorted(tracer.counts.items())),
    )


def per_layer(w: Workload, seed: int, seconds: float):
    """The traced run.  Inputs from `seed` run untraced and traced, and
    inputs from `seed + 1` traced, in rounds that should end within
    `seconds` (two rounds at least).  Every traced pass must count exactly
    the same work."""
    from tracing import Tracer

    deadline = perf_counter() + seconds
    env = child_env()
    spawn("pass", env)
    interp = [spawn_seconds("pass", env) for _ in range(STARTUP_SAMPLES)]
    imports = []
    for _ in range(STARTUP_SAMPLES):
        p = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
        )
        imports.append(float(p.stdout))

    passes = {n: w.make_pass(random.Random(n)) for n in (seed, seed + 1)}
    tally = Tally()
    untraced_s = traced_s = 0.0
    first = None
    problems = []
    totals: dict[str, dict[str, int]] = {}
    traced_sentences = rounds = 0
    round_s = 0.0
    while rounds < 2 or perf_counter() + round_s < deadline:
        t0 = perf_counter()
        rounds += 1
        untraced_s += one_pass(w, passes[seed], tally)
        for pass_seed, sentences in passes.items():
            tracer = Tracer()
            dt = one_pass(w, sentences, tally, tracer)
            if pass_seed == seed:
                traced_s += dt
            summary = tracer.summary()
            signature = count_signature(tracer, summary, sentences)
            if first is None:
                first = (tracer, summary, signature, sentences)
            elif signature != first[2]:
                problems.append(f"round {rounds}, seed {pass_seed}: counts differ")
            for name, agg in summary.items():
                acc = totals.setdefault(name, dict.fromkeys(agg, 0))
                for key, value in agg.items():
                    acc[key] += value
            traced_sentences += len(sentences)
        round_s = perf_counter() - t0

    tracer, summary, _, sentences = first
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{w.name}-{seed}.jsonl.gz", [s.shape for s in sentences])

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ms(name, key="ns"):
        return totals.get(name, {}).get(key, 0) / traced_sentences / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    counts, hits = tracer.counts, tracer.hits
    lexicon = totals["glue.lexicon"]
    metrics = {
        "cli.interp_ms": (statistics.median(interp) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
        "fstruct.parse_ms": (ms("fstruct.parse"), "ms/sentence"),
        "fstruct.nodes": (counts["fstruct.nodes"], "count/pass"),
        "glue.lexicon_ms": (lexicon["ns"] / lexicon["calls"] / 1e6, "ms/load"),
        "glue.lexicon_entries": (
            counts["glue.lexicon_entries"] / calls("glue.lexicon"), "count/load"
        ),
        "glue.premises_ms": (ms("glue.premises"), "ms/sentence"),
        "glue.premises": (counts["glue.premises"], "count/pass"),
        "glue.inst_calls": (calls("glue.inst"), "count/pass"),
        "glue.inst_ms": (ms("glue.inst"), "ms/sentence"),
        "glue.dupkey_calls": (calls("glue.dupkey"), "count/pass"),
        "glue.dupkey_ms": (ms("glue.dupkey"), "ms/sentence"),
        "prover.search_ms": (ms("prover.search", "self_ns"), "ms/sentence"),
        "prover.steps": (counts["prover.steps"], "count/pass"),
        "prover.proofs": (counts["prover.proofs"], "count/pass"),
        "prover.readings": (counts["prover.readings"], "count/pass"),
        "prover.steps_per_reading": (
            ratio(counts["prover.steps"], counts["prover.readings"]), "ratio"
        ),
        "prover.proofs_per_reading": (
            ratio(counts["prover.proofs"], counts["prover.readings"]), "ratio"
        ),
        "prover.extract_calls": (calls("prover.extract"), "count/pass"),
        "prover.extract_ms": (ms("prover.extract"), "ms/sentence"),
        "unify.atom_calls": (calls("unify.atom"), "count/pass"),
        "unify.atom_hit_ratio": (ratio(hits["unify.atom"], calls("unify.atom")), "ratio"),
        "unify.solve_calls": (calls("unify.solve"), "count/pass"),
        "unify.solve_ms": (ms("unify.solve"), "ms/sentence"),
        "unify.solve_hit_ratio": (ratio(hits["unify.solve"], calls("unify.solve")), "ratio"),
        "unify.nf_calls": (calls("unify.nf"), "count/pass"),
        "unify.nf_ms": (ms("unify.nf"), "ms/sentence"),
        "unify.bind_calls": (calls("unify.bind"), "count/pass"),
        "terms.normalize_calls": (calls("terms.normalize"), "count/pass"),
        "terms.normalize_ms": (ms("terms.normalize"), "ms/sentence"),
        "terms.print_calls": (calls("terms.print"), "count/pass"),
        "terms.print_ms": (ms("terms.print"), "ms/sentence"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    shapes = {}
    for i, c in sorted(tracer.by_request.items()):
        shapes.setdefault(sentences[i].shape, c)
    return tally, metrics, problems, shapes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/gluesem/__init__.py", LEXICON) if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    if hasattr(os, "sched_setaffinity"):
        # The host's CPUs change speed independently: keep this process, its
        # children and HostClock's reference work on one of them.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    problems: list[str] = []
    if args.trace:
        tally, metrics, problems, shapes = per_layer(w, args.seed, args.seconds)
        for shape, (steps, proofs, readings) in sorted(shapes.items()):
            print(f"  {shape:<32} steps {steps:>6}  proofs {proofs:>4}  readings {readings:>4}")
    else:
        tally, metrics, clock = end_to_end(w, args.seed, args.seconds)
        print(
            f"  host speed: reference work {statistics.median(clock.refs) * 1e3:.2f} ms"
            f" (baseline {REFERENCE_S * 1e3:.2f} ms), timed calls"
            f" {sum(clock.wall):.1f} s wall"
        )

    correct = tally.failed == 0 and not problems
    print(
        f"{w.name} seed {args.seed}: {tally.attempted} sentences, "
        f"failed_ratio {tally.failed / tally.attempted:.4f}"
    )
    for problem in problems:
        print(f"  error: {problem}")
    if correct:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:>14.4f} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": (
            {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
            if correct
            else {}
        ),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
