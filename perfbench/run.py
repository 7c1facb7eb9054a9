"""kgrec benchmark: train and evaluate on a seeded Last.FM-shaped corpus.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lastfm-train --seed 1 --seconds 36 --trace 0

The corpus is generated from ``--seed`` (perfbench/corpus.py); the program
sees only the generated files and is driven through its public library API.
A run

1. ingests the raw files into a dataset directory and a walk cache on disk;
2. sets up (``setup_s``): ``load_dataset`` + ``WalkCache.load`` +
   ``init_params``, SETUP_REPEATS times and once more before every measured
   unit, median;
3. measures for ``--seconds``.  A train unit is one ``train()`` call capped at
   TRAIN_BATCHES batches with the valid split withheld; an eval unit is one
   full-ranking ``evaluate()`` on the test positives of EVAL_USERS seeded
   users.  The workload's own kind runs first, for all but SIDE_SHARE of the
   time, and the other kind for the rest, so every end-to-end metric is
   measured on every workload.  An unrecorded warm-up train unit precedes
   the first train unit.

With ``--trace 1`` public callables of each module are wrapped from outside
(perfbench/spans.py, perfbench/layers.py) and the per-layer metrics are
printed instead.  The last line of standard output is one JSON object; the
full record (environment, settings, output fingerprints, per-unit figures)
goes to perfbench/out/.  perfbench/README.md describes the metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# the BLAS pool size is read when numpy loads, so it is pinned before any import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import corpus
import layers
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# workload -> the unit kind it stresses
WORKLOADS = {"lastfm-train": "train", "lastfm-eval": "eval"}

SPLIT = (0.6, 0.2, 0.2)
# Every train() call samples a whole epoch's negatives (about 0.6 s) before
# its first batch: about 8% of a unit of 16 batches, where a real epoch of
# 497 batches spends about 0.2% on it.
TRAIN_BATCHES = 16
EVAL_USERS = 32
# The host's speed changes over tens of seconds; set-up repeats taken only
# back to back sample one such phase, so further repeats are spread over the
# measured phase, one before every unit.
SETUP_REPEATS = 5
SIDE_SHARE = 0.25
# One walk per item instead of 15 keeps a run's input preparation short.
# Training and evaluation cost does not depend on it: every item still has a
# context of up to S entities.
PREP_WALKS = 1


def import_program():
    """Import kgrec from this checkout's ``src``; exit 2 when it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kgrec
        from kgrec import evaluation, graph, model, sampling, training
    except ImportError as exc:
        print(f"perfbench: cannot import kgrec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(kgrec.__file__).resolve().parent != (ROOT / "src" / "kgrec").resolve():
        print(f"perfbench: kgrec imported from {kgrec.__file__}, not from this checkout",
              file=sys.stderr)
        sys.exit(2)
    return kgrec, graph, sampling, model, training, evaluation


@dataclass
class Inputs:
    kg: object
    item_entities: np.ndarray
    cache: object
    params: object
    init_values: dict
    train_store: object
    eval_store: object
    eval_expected_users: int


class Session:
    """One benchmark invocation: set-up, measured units, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        (self.kgrec, self.graph, self.sampling, self.model, self.training,
         self.evaluation) = import_program()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = Tracer() if trace else None
        self.model_cfg = self.model.ModelConfig(dim=32, local_size=4, history_size=16)
        self.walk_cfg = self.sampling.WalkConfig(gamma=0.2, num_walks=PREP_WALKS,
                                                 walk_length=8,
                                                 context_size=self.model_cfg.local_size)
        self.train_cfg = self.training.TrainConfig(batch_size=256, epochs=1,
                                                   max_batches=TRAIN_BATCHES, seed=seed)
        self.eval_cfg = self.evaluation.EvalConfig()
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.fingerprints: dict = {}
        self.units: dict = {"train": [], "eval": []}
        self.untraced: dict = {}
        self.counts: dict = {}
        self.setup_times: list = []
        self.item_count = 0
        self.peak_rss_kb = 0

    # -- bookkeeping ---------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer and self.tracer.active else nullcontext()

    def account(self, ops: int, problems: list) -> None:
        """Count ``ops`` operations as attempted, and all of them as failed
        when any output check reported a problem."""
        self.attempted += ops
        if problems:
            self.failed += ops
            self.errors.extend(problems)
            for what in problems:
                print(f"perfbench: check failed: {what}", file=sys.stderr)

    def measured_kind(self) -> str:
        return WORKLOADS[self.workload]

    def same_output(self, kind: str, digest: str) -> bool:
        """True when ``digest`` matches the first output of this kind in the run."""
        first = self.fingerprints.setdefault(kind, digest)
        return first == digest

    # -- set-up ----------------------------------------------------------------

    def ingest(self, raw: dict) -> tuple:
        """Raw TSV files -> dataset directory -> walk cache on disk."""
        g, s = self.graph, self.sampling
        dataset_dir, cache_path = self.work / "dataset", self.work / "cache.bin"
        with self.span("ingest"):
            store, id_maps = g.load_interactions(raw["ratings"])
            kg, item_entities = g.load_kg(raw["kg"], raw["item_map"], id_maps)
            store = g.split_interactions(store, SPLIT, seed=self.seed)
            g.save_dataset(dataset_dir, store, kg, item_entities, id_maps)
            cache = s.build_walk_cache(kg, item_entities, self.walk_cfg, seed=self.seed,
                                       workers=1)
            cache.save(cache_path)
        stats = g.dataset_stats(store, kg)
        shape = {key: stats[key] for key in corpus.SHAPE}
        self.account(1, [] if shape == corpus.SHAPE else
                     [f"ingested shape {shape} != {corpus.SHAPE}"])
        return dataset_dir, cache_path, store, kg, item_entities, cache

    def load(self, dataset_dir: Path, cache_path: Path) -> tuple:
        """The warm path: dataset and cache from disk, fresh parameters."""
        with self.span("setup"):
            store, kg, item_entities, _ = self.graph.load_dataset(dataset_dir)
            cache = self.sampling.WalkCache.load(cache_path)
            params = self.model.init_params(self.model_cfg, store.user_count,
                                            kg.entity_count, kg.relation_embedding_count,
                                            self.sampling.substream(self.seed, "init"))
        return store, kg, item_entities, cache, params

    def check_round_trip(self, built: tuple, loaded: tuple, cache_path: Path) -> None:
        """The reloaded dataset and cache must equal what ingest built."""
        store, kg, item_entities, cache = built
        store2, kg2, item_entities2, cache2 = loaded
        same_dataset = (all(store.pairs(split) == store2.pairs(split)
                            for split in ("train", "valid", "test"))
                        and kg.triples == kg2.triples
                        and np.array_equal(item_entities, item_entities2))
        self.account(1, [] if same_dataset else
                     ["reloaded dataset differs from the ingested one"])
        header = ("item_count", "context_size", "seed", "gamma", "num_walks", "walk_length")
        same_header = all(getattr(cache, f) == getattr(cache2, f) for f in header)
        self.account(1, [] if same_header else
                     ["reloaded cache header differs from the built one"])
        for item, (a, b) in enumerate(zip(cache.contexts, cache2.contexts)):
            self.account(1, [] if np.array_equal(a, b) else
                         [f"reloaded cache context of item {item} differs"])
        digest = hashlib.sha256()
        for path in sorted((self.work / "dataset").iterdir()) + [cache_path]:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        self.fingerprints["inputs"] = digest.hexdigest()

    def timed_load(self) -> tuple:
        """One set-up repeat, timed into ``setup_times``."""
        gc.collect()
        started = time.perf_counter()
        loaded = self.load(self.work / "dataset", self.work / "cache.bin")
        self.setup_times.append(time.perf_counter() - started)
        return loaded

    def set_up(self, raw: dict) -> Inputs:
        dataset_dir, cache_path, *built = self.ingest(raw)
        for _ in range(SETUP_REPEATS):
            loaded = None  # the previous repeat's objects are garbage before timing
            loaded = self.timed_load()
        self.check_round_trip(tuple(built), loaded[:4], cache_path)
        self.item_count = built[0].item_count
        return self.inputs(*loaded)

    def inputs(self, store, kg, item_entities, cache, params) -> Inputs:
        InteractionStore = self.graph.InteractionStore
        # training with the valid split withheld never runs validation
        train_store = InteractionStore(store.user_count, store.item_count,
                                       {"train": store.pairs("train"),
                                        "test": store.pairs("test")})
        rng = np.random.default_rng([self.seed, 0xE7A1])
        users = set(rng.choice(store.user_count, size=EVAL_USERS, replace=False).tolist())
        test = [(u, i) for u, i in store.pairs("test") if u in users]
        eval_store = InteractionStore(store.user_count, store.item_count,
                                      {"train": store.pairs("train"),
                                       "valid": store.pairs("valid"), "test": test})
        expected = len({u for u, _ in test})
        return Inputs(kg, item_entities, cache, params, params.snapshot(),
                      train_store, eval_store, expected)

    # -- measured units --------------------------------------------------------

    def train_unit(self, inp: Inputs, span: str) -> dict:
        inp.params.restore(inp.init_values)
        with self.span(span):
            started = time.perf_counter()
            _, report = self.training.train(inp.train_store, inp.kg, inp.item_entities,
                                            inp.cache, self.model_cfg, self.train_cfg,
                                            params=inp.params)
            seconds = time.perf_counter() - started
        record = report.records[-1]
        losses = [v for r in report.records for v in (r.bpr_loss, r.kg_loss, r.l2_term)]
        digest = hashlib.sha256("\n".join(report.report_lines()).encode()).hexdigest()
        problems = []
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"a training loss is not finite: {losses}")
        if not self.same_output("train", digest):
            problems.append("train report differs from the first train unit's")
        self.account(TRAIN_BATCHES, problems)
        return {"seconds": seconds, "tuples": TRAIN_BATCHES * self.train_cfg.batch_size,
                "bpr_loss": record.bpr_loss, "kg_loss": record.kg_loss}

    def eval_unit(self, inp: Inputs, span: str) -> dict:
        inp.params.restore(inp.init_values)
        with self.span(span):
            started = time.perf_counter()
            report = self.evaluation.evaluate(inp.params, self.model_cfg, inp.eval_store,
                                              inp.kg, inp.item_entities, inp.cache,
                                              self.eval_cfg, split="test", seed=self.seed)
            seconds = time.perf_counter() - started
        values = [v for per_k in report.metrics.values() for v in per_k.values()]
        users = inp.eval_expected_users
        digest = hashlib.sha256("\n".join(report.to_lines()).encode()).hexdigest()
        problems = []
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"an evaluation metric is outside [0, 1]: {values}")
        if report.users_evaluated != users:
            problems.append(f"evaluated {report.users_evaluated} users, expected {users}")
        if not self.same_output("eval", digest):
            problems.append("evaluation report differs from the first eval unit's")
        self.account(users, problems)
        return {"seconds": seconds, "users": report.users_evaluated,
                "hr20": report.metrics[20]["hit_ratio"]}

    def run_unit(self, kind: str, inp: Inputs, record: bool = True) -> dict | None:
        unit = self.train_unit if kind == "train" else self.eval_unit
        # The autodiff tape holds reference cycles that only the cyclic
        # collector frees; collecting between units keeps one unit's garbage
        # out of the next unit's time and out of the peak memory.
        gc.collect()
        try:
            result = unit(inp, f"unit.{kind}" if record else f"warmup.{kind}")
        except Exception:  # a unit that raises counts as failed, the run goes on
            traceback.print_exc()
            ops = TRAIN_BATCHES if kind == "train" else inp.eval_expected_users
            self.account(ops, [f"{kind} unit raised"])
            return None
        if record:
            self.units[kind].append(result)
        return result

    def measure(self, inp: Inputs) -> None:
        """The workload's own kind for all but SIDE_SHARE of the time, then
        the other kind for the rest, each at least once.  A phase ends when
        its next unit, as long as its last one, would overrun its share.

        An unrecorded train unit comes before the first recorded one: the
        first ``train()`` in a process grows the heap to the tapes' peak (up
        to about 2 GB of fresh pages) and took 15-25% longer than later calls
        even after a warm-up of 4 batches; a real epoch pays that once in 497
        batches.  Evaluation shows no such first-call cost.

        ``peak_rss_mb`` is read when the own kind is done, so on
        ``lastfm-eval`` it is the peak of ingest, set-up and evaluation, not
        the training tapes' peak."""
        own = self.measured_kind()
        other = "eval" if own == "train" else "train"
        for kind, share in ((own, 1.0 - SIDE_SHARE), (other, SIDE_SHARE)):
            if kind == "train":
                self.run_unit("train", inp, record=False)
            started = time.perf_counter()
            while True:
                unit_started = time.perf_counter()
                self.timed_load()
                self.run_unit(kind, inp)
                now = time.perf_counter()
                if 2 * now - unit_started - started > share * self.seconds:
                    break
            if kind == own:
                self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if self.tracer:
                    layers.measure_overhead(self, inp)

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self) -> dict:
        train = self.units["train"]
        evals = self.units["eval"]
        if not train or not evals:
            raise RuntimeError("no unit of some kind completed; nothing to report")
        rss_mb = self.peak_rss_kb / 1024.0
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "train_tuples_per_s": (throughput(train, "tuples"), "1/s"),
            "eval_users_per_s": (throughput(evals, "users"), "1/s"),
            "train_bpr_loss": (train[0]["bpr_loss"], "nats"),
            "train_kg_loss": (train[0]["kg_loss"], "nats"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}

    def environment(self) -> dict:
        blas = {}
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pass
        return {
            "git_sha": git_sha(ROOT),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "seed": self.seed,
        }

    def settings(self) -> dict:
        return {
            "model": asdict(self.model_cfg),
            "walk": asdict(self.walk_cfg),
            "train": asdict(self.train_cfg),
            "eval": {**asdict(self.eval_cfg), "users_sampled": EVAL_USERS},
            "split": SPLIT,
            "setup_repeats": len(self.setup_times),
            "seconds": self.seconds,
        }


def throughput(units: list, work: str) -> float:
    """Work completed per second over all recorded units of one kind.

    Work over summed time rather than the median of per-unit rates: with a
    handful of units per run, the median varied half again as much between
    runs on the same machine."""
    return sum(u[work] for u in units) / sum(u["seconds"] for u in units)


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = BENCH_DIR / "out"
    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    session = Session(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        raw = corpus.write_corpus(work / "raw", args.seed)
        if session.tracer:
            layers.install(session)
        inputs = session.set_up(raw)
        session.measure(inputs)
        if session.tracer:
            session.tracer.restore()
            metrics, missing = layers.per_layer(session)
        else:
            metrics, missing = session.end_to_end(), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()

    result = session.result(metrics)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "result": result, "missing": missing,
              "environment": session.environment(), "settings": session.settings(),
              "fingerprints": session.fingerprints, "errors": session.errors,
              "setup_times": session.setup_times, "units": session.units}
    if session.tracer:
        record["baseline"] = layers.baseline_comparison(session, metrics)
        session.tracer.write(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in result["metrics"].items():
        print(f"{name}\t{entry['value']!r}\t{entry['unit']}", file=sys.stderr)
    for name in missing:
        print(f"{name}\tmissing", file=sys.stderr)
    for stage, figures in record.get("baseline", {}).items():
        print(f"baseline\t{stage}\t{figures}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
