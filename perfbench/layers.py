"""Per-layer metrics of a traced run.

Each metric is read from spans recorded around public callables of one
module, or from counts derived from what those callables returned.  Seconds
are busy (or self) time per unit of work: the set-up pass for ``graph`` and
the walk half of ``sampling``, one train unit (``train()`` capped at
TRAIN_BATCHES batches) for ``training``, ``model`` and ``autodiff``, one eval
unit for ``evaluation``; where several units ran, the median is taken.
Counts come from the first unit and are checked to repeat in later ones.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

BUSY, SELF, CALLS = 0, 1, 2

# the ROADMAP baseline, reported next to the traced figures and never gated
BASELINE = {"s_per_batch": 0.555, "ms_per_eval_user": 84.0, "ms_per_cached_item": 7.0}

# (module attribute, target path) wrapped in a traced run; the span name is
# "<module>.<path>".  Samplers imported by name are wrapped where they are used.
TARGETS = (
    ("graph", "load_interactions"),
    ("graph", "load_kg"),
    ("graph", "split_interactions"),
    ("graph", "save_dataset"),
    ("graph", "load_dataset"),
    ("sampling", "build_walk_cache"),
    ("sampling", "WalkCache.save"),
    ("sampling", "WalkCache.load"),
    ("training", "train"),
    ("training", "sample_bpr_tuples"),
    ("training", "sample_kg_negatives"),
    ("training", "sample_history"),
    ("training", "sample_local_neighbors"),
    ("training", "assemble_pair_batch"),
    ("training", "total_objective"),
    ("model", "GraphContextModel.scores_batch"),
    ("autodiff", "Tensor.backward"),
    ("autodiff", "AdamState.step"),
    ("evaluation", "evaluate"),
    ("evaluation", "ItemContextSet.build"),
    ("evaluation", "FastScorer.all_item_q"),
    ("evaluation", "FastScorer.user_scores"),
    ("evaluation", "rank_items"),
    ("evaluation", "sample_history"),
    ("evaluation", "sample_local_neighbors"),
)


def install(session) -> None:
    """Wrap every target; counts go to ``session.counts[root span id]``."""
    tracer = session.tracer

    def counts() -> Counter:
        return session.counts.setdefault(tracer.current_root(), Counter())

    def on_batch(batch, _args):
        c = counts()
        users, entities = batch.user_rows, batch.entity_rows
        c["batches"] += 1
        c["rows"] += len(entities)
        # items map one-to-one to entities, so entity ids stand for item ids
        c["unique_items"] += len(np.unique(entities))
        c["unique_user_items"] += len(np.unique(np.stack([users, entities]), axis=1)[0])

    def on_user_scores(scores, _args):
        c = counts()
        c["users"] += 1
        c["items_scored"] += int(np.size(scores))

    observers = {"training.assemble_pair_batch": on_batch,
                 "evaluation.FastScorer.user_scores": on_user_scores}
    for module_name, path in TARGETS:
        name = f"{module_name}.{path}"
        module = getattr(session.kgrec, module_name)
        tracer.wrap(module, path, name, observe=observers.get(name))


def measure_overhead(session, inputs) -> None:
    """Time one untraced unit of the workload's own kind, for
    ``trace.overhead_ratio``.

    Runs right after the traced units of that kind, with the wrappers
    removed and then put back, so the untraced unit finds the heap as the
    traced ones did; after the other kind's units a train unit has to grow
    the heap again and reads slower than the traced ones."""
    session.tracer.restore()
    kind = session.measured_kind()
    result = session.run_unit(kind, inputs, record=False)
    if result is not None:
        session.untraced[kind] = result["seconds"]
    install(session)


def per_layer(session) -> tuple[dict, list]:
    """(metrics as name -> (value, unit), names of metrics whose target is gone)."""
    tracer = session.tracer
    children = tracer.children_of()

    def units(root_name: str) -> list:
        return [tracer.totals_under(sid, children) for sid in tracer.roots(root_name)]

    ingest = units("ingest")
    setups = units("setup")
    trains = units("unit.train")
    evals = units("unit.eval")
    train_counts = [session.counts.get(sid, Counter()) for sid in tracer.roots("unit.train")]
    eval_counts = [session.counts.get(sid, Counter()) for sid in tracer.roots("unit.eval")]
    for kind, seen in (("train", train_counts), ("eval", eval_counts)):
        for later in seen[1:]:
            session.account(1, [] if later == seen[0] else
                            [f"{kind} unit counts {dict(later)} != first {dict(seen[0])}"])
    tc, ec = train_counts[0], eval_counts[0]
    items = session.item_count

    def med(runs: list, part: int, span: str) -> float:
        return statistics.median(run[part][span] for run in runs)

    def first(runs: list, part: int, span: str) -> float:
        return runs[0][part][span]

    def overhead() -> float:
        kind = session.measured_kind()
        traced = statistics.median(u["seconds"] for u in session.units[kind])
        return traced / session.untraced[kind]

    g, s, t, e = "graph.", "sampling.", "training.", "evaluation."
    # metric -> (unit, spans it needs, value)
    table = {
        "graph.load_interactions_s": ("s", [g + "load_interactions"],
                                      lambda: first(ingest, BUSY, g + "load_interactions")),
        "graph.load_kg_s": ("s", [g + "load_kg"], lambda: first(ingest, BUSY, g + "load_kg")),
        "graph.split_interactions_s": ("s", [g + "split_interactions"],
                                       lambda: first(ingest, BUSY, g + "split_interactions")),
        "graph.save_dataset_s": ("s", [g + "save_dataset"],
                                 lambda: first(ingest, BUSY, g + "save_dataset")),
        "graph.load_dataset_s": ("s", [g + "load_dataset"],
                                 lambda: med(setups, BUSY, g + "load_dataset")),
        "sampling.build_walk_cache_s": ("s", [s + "build_walk_cache"],
                                        lambda: first(ingest, BUSY, s + "build_walk_cache")),
        "sampling.walk_ms_per_item": (
            "ms", [s + "build_walk_cache"],
            lambda: 1000.0 * first(ingest, BUSY, s + "build_walk_cache") / items),
        "sampling.walk_cache_save_s": ("s", [s + "WalkCache.save"],
                                       lambda: first(ingest, BUSY, s + "WalkCache.save")),
        "sampling.walk_cache_load_s": ("s", [s + "WalkCache.load"],
                                       lambda: med(setups, BUSY, s + "WalkCache.load")),
        "sampling.sample_bpr_tuples_s": ("s", [t + "sample_bpr_tuples"],
                                         lambda: med(trains, BUSY, t + "sample_bpr_tuples")),
        "sampling.sample_kg_negatives_s": (
            "s", [t + "sample_kg_negatives"],
            lambda: med(trains, BUSY, t + "sample_kg_negatives")),
        "sampling.sample_history_s": (
            "s", [t + "sample_history", e + "sample_history"],
            lambda: med(trains, BUSY, t + "sample_history") + med(evals, BUSY, e + "sample_history")),
        "sampling.sample_history_calls": (
            "count", [t + "sample_history", e + "sample_history"],
            lambda: first(trains, CALLS, t + "sample_history")
            + first(evals, CALLS, e + "sample_history")),
        "sampling.sample_local_neighbors_s": (
            "s", [t + "sample_local_neighbors", e + "sample_local_neighbors"],
            lambda: med(trains, BUSY, t + "sample_local_neighbors")
            + med(evals, BUSY, e + "sample_local_neighbors")),
        "sampling.sample_local_neighbors_calls": (
            "count", [t + "sample_local_neighbors", e + "sample_local_neighbors"],
            lambda: first(trains, CALLS, t + "sample_local_neighbors")
            + first(evals, CALLS, e + "sample_local_neighbors")),
        "training.assemble_pair_batch_self_s": (
            "s", [t + "assemble_pair_batch"], lambda: med(trains, SELF, t + "assemble_pair_batch")),
        "training.total_objective_s": ("s", [t + "total_objective"],
                                       lambda: med(trains, BUSY, t + "total_objective")),
        "training.batches": ("count", [t + "assemble_pair_batch"], lambda: tc["batches"]),
        "training.rows_per_batch": ("count", [t + "assemble_pair_batch"],
                                    lambda: tc["rows"] / tc["batches"]),
        "training.unique_item_ratio": ("ratio", [t + "assemble_pair_batch"],
                                       lambda: tc["unique_items"] / tc["rows"]),
        "training.unique_user_item_ratio": ("ratio", [t + "assemble_pair_batch"],
                                            lambda: tc["unique_user_items"] / tc["rows"]),
        "model.scores_batch_s": ("s", ["model.GraphContextModel.scores_batch"],
                                 lambda: med(trains, BUSY, "model.GraphContextModel.scores_batch")),
        "autodiff.backward_s": ("s", ["autodiff.Tensor.backward"],
                                lambda: med(trains, BUSY, "autodiff.Tensor.backward")),
        "autodiff.adam_step_s": ("s", ["autodiff.AdamState.step"],
                                 lambda: med(trains, BUSY, "autodiff.AdamState.step")),
        "evaluation.context_build_s": ("s", [e + "ItemContextSet.build"],
                                       lambda: med(evals, BUSY, e + "ItemContextSet.build")),
        "evaluation.all_item_q_s": ("s", [e + "FastScorer.all_item_q"],
                                    lambda: med(evals, BUSY, e + "FastScorer.all_item_q")),
        "evaluation.user_stage_self_s": ("s", [e + "FastScorer.user_scores"],
                                         lambda: med(evals, SELF, e + "FastScorer.user_scores")),
        "evaluation.rank_items_s": ("s", [e + "rank_items"],
                                    lambda: med(evals, BUSY, e + "rank_items")),
        "evaluation.evaluate_self_s": ("s", [e + "evaluate"],
                                       lambda: med(evals, SELF, e + "evaluate")),
        "evaluation.users": ("count", [e + "FastScorer.user_scores"], lambda: ec["users"]),
        "evaluation.items_scored": ("count", [e + "FastScorer.user_scores"],
                                    lambda: ec["items_scored"]),
        "trace.overhead_ratio": ("ratio", [], overhead),
        "eval_hr20": ("ratio", [], lambda: session.units["eval"][0]["hr20"]),
        "failed_ratio": ("ratio", [], lambda: session.failed / session.attempted),
    }
    metrics, missing = {}, []
    for name, (unit, needs, value) in table.items():
        if any(span in tracer.missing for span in needs):
            missing.append(name)
        else:
            metrics[name] = (value(), unit)
    return metrics, missing


def baseline_comparison(session, metrics: dict) -> dict:
    """Traced per-stage figures next to the ROADMAP baseline (not gated)."""
    def value(name):
        return metrics[name][0] if name in metrics else None

    batches = value("training.batches")
    per_batch = None
    if batches:
        stages = ("training.assemble_pair_batch_self_s", "model.scores_batch_s",
                  "training.total_objective_s", "autodiff.backward_s", "autodiff.adam_step_s")
        if all(value(n) is not None for n in stages):
            per_batch = sum(value(n) for n in stages) / batches
    users = value("evaluation.users")
    per_user = None
    if users and value("evaluation.all_item_q_s") is not None:
        per_user = 1000.0 * (value("evaluation.all_item_q_s")
                             + value("evaluation.user_stage_self_s")) / users
    return {
        "s_per_batch": {"measured": per_batch, "baseline": BASELINE["s_per_batch"]},
        "ms_per_eval_user": {"measured": per_user, "baseline": BASELINE["ms_per_eval_user"]},
        "ms_per_cached_item": {"measured": value("sampling.walk_ms_per_item"),
                               "baseline": BASELINE["ms_per_cached_item"],
                               "walks_per_item": session.settings()["walk"]["num_walks"]},
    }
