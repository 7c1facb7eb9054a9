"""Data model: knowledge graph, user-item interactions, dense indexing, splits.

Input files are line-oriented UTF-8 text with tab-separated fields; lines
starting with ``#`` are ignored.  All raw identifiers are opaque strings and
are re-indexed densely in first-appearance order, which makes ingestion
bit-reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from functools import cached_property
from typing import NamedTuple

import numpy as np


class InputError(ValueError):
    """Malformed input file or empty/inconsistent result."""


_NAMESPACES = ("user", "item", "entity", "relation")

SPLITS = ("train", "valid", "test")


class IdMaps:
    """Bidirectional raw-string <-> dense-index maps, one namespace each."""

    def __init__(self):
        self._to_dense = {ns: {} for ns in _NAMESPACES}
        self._to_raw = {ns: [] for ns in _NAMESPACES}

    def intern(self, namespace: str, raws) -> np.ndarray:
        """The int64 dense ids of an iterable of raw strings (not one string);
        a new name gets the next index, so ids follow first appearance."""
        raws = list(raws)
        table = self._to_dense[namespace]
        new = [raw for raw in dict.fromkeys(raws) if raw not in table]
        table.update(zip(new, itertools.count(len(table))))
        self._to_raw[namespace].extend(new)
        return np.fromiter(map(table.__getitem__, raws), dtype=np.int64, count=len(raws))

    def dense(self, namespace: str, raw: str) -> int:
        return self._to_dense[namespace][raw]

    def has(self, namespace: str, raw: str) -> bool:
        return raw in self._to_dense[namespace]

    def raw(self, namespace: str, idx: int) -> str:
        return self._to_raw[namespace][idx]

    def count(self, namespace: str) -> int:
        return len(self._to_raw[namespace])

    def save(self, path) -> None:
        _write_tsv(path, [(ns, raw, idx) for ns in _NAMESPACES
                          for idx, raw in enumerate(self._to_raw[ns])])

    @classmethod
    def load(cls, path) -> "IdMaps":
        maps = cls()
        tables = maps._to_dense
        # one pass over the lines of one read; a name's index is its place
        # in its namespace, so each table's keys are its raw list.  A line
        # that names a namespace is neither blank nor a comment
        for lineno, line in enumerate(_read_text(path).split("\n"), 1):
            fields = line.split("\t")
            table = tables.get(fields[0]) if len(fields) == 3 else None
            if table is None:
                if not line.strip() or line.startswith("#"):
                    continue
                if len(fields) != 3:
                    raise InputError(f"{path}:{lineno}: expected 3 tab-separated fields, "
                                     f"got {len(fields)}")
                raise InputError(f"{path}:{lineno}: unknown namespace {fields[0]!r}")
            if table.setdefault(fields[1], len(table)) != int(fields[2]):
                raise InputError(f"{path}:{lineno}: non-contiguous index for {fields[1]!r}")
        maps._to_raw = {ns: list(table) for ns, table in tables.items()}
        return maps


def _int_rows(rows, width: int) -> np.ndarray:
    """(n, width) int64 array of rows of ``width`` integers: an (n, width)
    array, or any iterable of rows (read by ``fromiter``, several times faster
    than ``np.array`` on a list of tuples)."""
    if isinstance(rows, np.ndarray):
        table = rows.astype(np.int64, copy=False)
    else:
        rows = list(rows)
        bad = next((j for j, row in enumerate(rows) if len(row) != width), None)
        if bad is not None:
            raise InputError(f"row {bad} {tuple(rows[bad])} does not have {width} fields")
        flat = itertools.chain.from_iterable(rows)
        table = np.fromiter(flat, dtype=np.int64, count=len(rows) * width).reshape(-1, width)
    if table.ndim != 2 or table.shape[1] != width:
        raise InputError(f"expected rows of {width} fields, got an array of shape {table.shape}")
    return table


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True for each entry of the sorted keys that differs from the one before it."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class KnowledgeGraph:
    """Densely indexed triples with symmetric adjacency.

    Every original relation r gets a synthesized inverse relation R + r with
    its own embedding row, so edges can be walked in both directions.  One
    extra reserved index (``self_relation``) marks the self-loop fallback used
    when an entity has no neighbors at all.
    """

    def __init__(self, entity_count: int, original_relation_count: int, triples):
        """``triples`` are (head, relation, tail) rows: tuples or an (n, 3) array."""
        self.entity_count = int(entity_count)
        self.original_relation_count = int(original_relation_count)
        self.relation_count = 2 * self.original_relation_count
        n = self.entity_count
        if n * n * self.relation_count >= 2**63:
            raise InputError(f"a graph of {n} entities and {self.original_relation_count} "
                             "relations is too large to index")
        table = _int_rows(triples, 3)
        h, r, t = table.T
        bad = (np.minimum(h, t) < 0) | (np.maximum(h, t) >= n) \
            | (r < 0) | (r >= self.original_relation_count)
        if bad.any():
            raise InputError(f"triple {Triple(*table[int(np.argmax(bad))].tolist())} out of range")
        # an in-range edge (head, relation, tail) is the int64 key
        # (head * 2R + relation) * E + tail, ordered as the tuples are; the
        # first of every run of equal triples is kept, in input order (the
        # sort is stable)
        keys = (h * self.relation_count + r) * n + t
        order = np.argsort(keys, kind="stable")
        kept = np.sort(order[_run_starts(keys[order])])
        self.triple_table = table[kept]

        # CSR adjacency over both edge directions: entity e's (relation, tail)
        # pairs are edge_relations/edge_tails[edge_offsets[e]:edge_offsets[e+1]],
        # sorted by (relation, tail); its distinct neighbor entities are
        # neighbor_entities[neighbor_offsets[e]:neighbor_offsets[e+1]], ascending.
        # No two edges share a key, so sorting the keys alone orders them
        h, r, t = h[kept], r[kept], t[kept]
        inverse = (t * self.relation_count + r + self.original_relation_count) * n + h
        edges = np.sort(np.concatenate([keys[kept], inverse]))
        heads, tails = edges // (self.relation_count * n), edges % n
        self.edge_offsets = self._offsets(heads)
        self.edge_relations = edges // n % self.relation_count
        self.edge_tails = tails
        pairs = np.sort(heads * n + tails)
        distinct = pairs[_run_starts(pairs)]
        self.neighbor_offsets = self._offsets(distinct // n)
        self.neighbor_entities = distinct % n

    @property
    def triples(self) -> list:
        """The deduplicated triples as ``Triple``s, built from ``triple_table``
        on every read."""
        return list(map(Triple, *self.triple_table.T.tolist()))

    def _offsets(self, heads: np.ndarray) -> np.ndarray:
        """(entity_count + 1,) CSR offsets of rows grouped by ascending head."""
        counts = np.bincount(heads, minlength=self.entity_count)
        return np.concatenate([[0], np.cumsum(counts)])

    @cached_property
    def closed_neighborhood_keys(self) -> np.ndarray:
        """Every entity's closed neighborhood N(e) + {e}, as sorted keys
        e * entity_count + x; built on first use and kept."""
        n = self.entity_count
        owners = np.repeat(np.arange(n), np.diff(self.neighbor_offsets))
        return np.union1d(owners * n + self.neighbor_entities, np.arange(n) * (n + 1))

    def inverse(self, relation: int) -> int:
        if not 0 <= relation < self.original_relation_count:
            raise InputError(f"inverse() of non-original relation {relation}")
        return relation + self.original_relation_count

    @property
    def self_relation(self) -> int:
        return self.relation_count

    @property
    def relation_embedding_count(self) -> int:
        return self.relation_count + 1


class InteractionStore:
    """Per-user positive items partitioned into train/valid/test."""

    def __init__(self, user_count: int, item_count: int, split_pairs: dict):
        """``split_pairs`` maps a split to its (user, item) pairs, or an (n, 2) array."""
        self.user_count = int(user_count)
        self.item_count = int(item_count)
        self._pairs = {s: _int_rows(split_pairs.get(s, []), 2) for s in SPLITS}
        pairs = np.concatenate([self._pairs[s] for s in SPLITS])
        users, items = pairs.T
        keys = users * self.item_count + items
        bad = (users < 0) | (users >= self.user_count) | (items < 0) | (items >= self.item_count)
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        # the first offending pair in split order, as a pair-by-pair scan meets it
        offenders = np.flatnonzero(bad | (first[which] != np.arange(len(keys))))
        if offenders.size:
            j = offenders[0]
            problem = "out of range" if bad[j] else "appears in two splits"
            raise InputError(f"interaction {tuple(pairs[j].tolist())} {problem}")
        # each split's keys sorted by (user, item), with CSR offsets: user u's
        # keys are _keys[split][_offsets[split][u]:_offsets[split][u+1]]; the
        # train split's items, ascending per user, are train_items
        user_starts = np.arange(self.user_count + 1) * self.item_count
        split_ends = np.cumsum([len(self._pairs[s]) for s in SPLITS])
        self._keys = dict(zip(SPLITS, map(np.sort, np.split(keys, split_ends[:-1]))))
        self._offsets = {s: np.searchsorted(k, user_starts) for s, k in self._keys.items()}
        self.train_offsets = self._offsets["train"]
        self.train_items = self._keys["train"] % self.item_count

    @classmethod
    def unsplit(cls, pairs, user_count: int, item_count: int) -> "InteractionStore":
        """All interactions in one bucket, before ``split_interactions``."""
        return cls(user_count, item_count, {"train": pairs})

    def pairs(self, split: str) -> list:
        """The split's (user, item) tuples in input order."""
        return list(zip(*self._pairs[split].T.tolist()))

    def users_in(self, split: str) -> np.ndarray:
        """The users with at least one pair in the split, ascending."""
        return np.flatnonzero(np.diff(self._offsets[split]))

    def train_position(self, users, items) -> tuple[np.ndarray, np.ndarray]:
        """Where each (user, item) pair sits in ``train_items``, or would be
        inserted, and whether it is there."""
        users = np.asarray(users, dtype=np.int64)
        keys = users * self.item_count + np.asarray(items, dtype=np.int64)
        at = np.searchsorted(self._keys["train"], keys)
        found = at < self.train_offsets[users + 1]
        found[found] = self._keys["train"][at[found]] == keys[found]
        return at, found

    def positive_list(self, user: int, split: str) -> list:
        """The user's items in the split, ascending."""
        offsets = self._offsets[split]
        row = self._keys[split][offsets[user]:offsets[user + 1]]
        return (row - user * self.item_count).tolist()

    def interaction_count(self) -> int:
        return sum(len(p) for p in self._pairs.values())


def _read_text(path) -> str:
    """The whole UTF-8 file, newlines translated as text mode does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------------------
# binary artifacts: walk caches and checkpoints
# ---------------------------------------------------------------------------


def write_artifact(path, magic: bytes, version: int, meta: dict, arrays: dict) -> None:
    """``magic``, a little-endian u32 ``version`` and u32 header length, a
    UTF-8 JSON header of ``meta`` and every array's name, dtype and shape
    (sorted keys, compact, so equal contents give equal bytes), then the
    arrays' little-endian bytes in that order."""
    arrays = {name: np.asarray(a, a.dtype.newbyteorder("<")) for name, a in arrays.items()}
    header = json.dumps({"meta": meta, "arrays": [[name, a.dtype.str, list(a.shape)]
                                                  for name, a in arrays.items()]},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + np.array([version, len(header)], dtype="<u4").tobytes() + header)
        fh.writelines(a.tobytes() for a in arrays.values())


def read_artifact(path, magic: bytes, version: int, what: str, error,
                  fields: dict) -> tuple[dict, dict]:
    """(meta, {name: read-only array}) of a ``write_artifact`` file of this
    magic and version, whose arrays are float64 or uint32 of rank <= 2 with
    unique names and fill it exactly.  ``meta`` holds the entries that
    ``fields`` names (name -> bool, int or float), in its order: an int must
    be >= 0, a float may be an int, no bool is a number.  Anything else read
    raises ``error``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic:
        raise error(f"{path}: not a {what} file")
    found = int.from_bytes(data[4:8], "little")
    if len(data) >= 8 and found != version:
        raise error(f"{path}: unsupported {what} version {found}")
    at = 12 + int.from_bytes(data[8:12], "little")
    if len(data) < at:
        raise error(f"{path}: {what} is truncated")
    try:
        header = json.loads(data[12:at].decode("utf-8"))
        meta, entries = header["meta"], [tuple(entry) for entry in header["arrays"]]
        if (set(header) != {"meta", "arrays"} or not isinstance(meta, dict)
                or len({name for name, _, _ in entries}) != len(entries) or not all(
                    isinstance(name, str) and dtype in ("<f8", "<u4") and len(shape) <= 2
                    and all(type(n) is int and n >= 0 for n in shape)
                    for name, dtype, shape in entries)):
            raise ValueError
    # json.loads raises RecursionError on a deeply nested header
    except (ValueError, TypeError, KeyError, RecursionError):
        raise error(f"{path}: {what} header is corrupt") from None
    for name, kind in fields.items():
        value = meta.get(name)
        if type(value) not in ((int, float) if kind is float else (kind,)) or (
                kind is int and value < 0):
            raise error(f"{path}: {what} field {name!r} is {value!r}, "
                        f"expected {'an int >= 0' if kind is int else kind.__name__}")
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in entries]
    if at + sum(sizes) != len(data):
        raise error(f"{path}: {what} is truncated" if at + sum(sizes) > len(data)
                    else f"{path}: {what} has bytes past its arrays")
    return {name: meta[name] for name in fields}, {
        name: np.frombuffer(data, dtype, math.prod(shape), start).reshape(shape)
        for (name, dtype, shape), start in zip(entries, itertools.accumulate(sizes, initial=at))}


def _read_tsv(path, n_fields: int):
    """Yield (lineno, fields) for non-blank, non-comment lines."""
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise InputError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                f"got {len(fields)}")
        yield lineno, fields


def load_interactions(path, threshold: float | None = None):
    """Parse ``user<TAB>item<TAB>rating`` rows into an unsplit store.

    With a threshold, only rows with rating strictly greater are kept.
    Users and items are indexed in first appearance order among kept rows;
    duplicate (user, item) pairs collapse to one interaction.
    """
    users, items = [], []
    for lineno, (user, item, raw_rating) in _read_tsv(path, 3):
        try:
            rating = float(raw_rating)
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric rating {raw_rating!r}") from None
        if threshold is None or rating > threshold:
            users.append(user)
            items.append(item)
    if not users:
        raise InputError(f"{path}: no interactions retained")
    maps = IdMaps()
    pairs = np.stack([maps.intern("user", users), maps.intern("item", items)], axis=1)
    # the first of each repeated pair, in input order
    _, first = np.unique(pairs[:, 0] * maps.count("item") + pairs[:, 1], return_index=True)
    return InteractionStore.unsplit(pairs[np.sort(first)], maps.count("user"),
                                    maps.count("item")), maps


def load_kg(kg_path, item_map_path, id_maps: IdMaps):
    """Parse triples and the item->entity map; returns (graph, item_entities).

    Every item present in ``id_maps`` must resolve to exactly one entity that
    occurs in the triple file, and no two items may share an entity.
    """
    ends, relations = [], []
    for _, (head, relation, tail) in _read_tsv(kg_path, 3):
        ends += head, tail  # interleaved, so entities are numbered in line order
        relations.append(relation)
    if not relations:
        raise InputError(f"{kg_path}: no triples loaded")
    ends = id_maps.intern("entity", ends)
    triples = np.stack([ends[0::2], id_maps.intern("relation", relations), ends[1::2]], axis=1)
    kg = KnowledgeGraph(id_maps.count("entity"), id_maps.count("relation"), triples)

    item_entities = np.full(id_maps.count("item"), -1, dtype=np.int64)
    duplicates, unknown = [], []
    for lineno, (raw_item, raw_entity) in _read_tsv(item_map_path, 2):
        if not id_maps.has("item", raw_item):
            continue  # catalog rows for items absent from the interaction data
        item = id_maps.dense("item", raw_item)
        if not id_maps.has("entity", raw_entity):
            unknown.append(f"line {lineno}: {raw_item!r} -> unknown entity {raw_entity!r}")
        elif item_entities[item] != -1:
            duplicates.append(f"line {lineno}: {raw_item!r} mapped more than once")
        else:
            item_entities[item] = id_maps.dense("entity", raw_entity)
    if unknown:
        raise InputError(f"{item_map_path}: " + "; ".join(unknown))
    if duplicates:
        raise InputError(f"{item_map_path}: " + "; ".join(duplicates))
    missing = [id_maps.raw("item", i) for i in np.flatnonzero(item_entities == -1)[:10]]
    if missing:
        raise InputError(f"{item_map_path}: items without an entity: {missing}")
    entities, counts = np.unique(item_entities, return_counts=True)
    if (counts > 1).any():
        shared = entities[counts > 1][:10].tolist()
        raise InputError(f"{item_map_path}: entities shared by several items: {shared}")
    return kg, item_entities


def split_counts(n: int, ratios) -> tuple[int, int, int]:
    """Sizes of the three contiguous cuts: floor, floor, remainder."""
    # the 1e-9 nudge keeps exact products like 10 * 0.6 from flooring low
    a = int(math.floor(n * ratios[0] + 1e-9))
    ab = int(math.floor(n * (ratios[0] + ratios[1]) + 1e-9))
    return a, ab - a, n - ab


def split_interactions(store: InteractionStore, ratios=(0.6, 0.2, 0.2),
                       seed: int = 0) -> InteractionStore:
    """Globally shuffle all interactions under ``seed`` and cut into three splits."""
    if not math.isclose(sum(ratios), 1.0, rel_tol=0, abs_tol=1e-9):
        raise InputError(f"split ratios {ratios} do not sum to 1")
    pairs = np.concatenate([store._pairs[s] for s in SPLITS])
    shuffled = pairs[np.random.default_rng(seed).permutation(len(pairs))]
    n_train, n_valid, _ = split_counts(len(pairs), ratios)
    return InteractionStore(store.user_count, store.item_count, {
        "train": shuffled[:n_train],
        "valid": shuffled[n_train:n_train + n_valid],
        "test": shuffled[n_train + n_valid:],
    })


# ---------------------------------------------------------------------------
# preprocessed dataset directory
# ---------------------------------------------------------------------------


def _write_tsv(path, rows) -> None:
    """One line per row of a list of equal-length rows or a 2-D array, each
    field formatted as ``str`` does, tab-separated."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    line = "\t".join(["%s"] * len(rows[0])) + "\n" if rows else ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line * len(rows) % tuple(itertools.chain.from_iterable(rows)))


def save_dataset(dirpath, store: InteractionStore, kg: KnowledgeGraph,
                 item_entities: np.ndarray, id_maps: IdMaps) -> None:
    os.makedirs(dirpath, exist_ok=True)
    id_maps.save(os.path.join(dirpath, "id_maps.tsv"))
    tables = {"meta": [("users", store.user_count), ("items", store.item_count),
                       ("entities", kg.entity_count), ("relations", kg.original_relation_count)],
              **{split: store._pairs[split] for split in SPLITS}, "kg": kg.triple_table,
              "item_entities": np.stack([np.arange(len(item_entities)), item_entities], axis=1)}
    for name, rows in tables.items():
        _write_tsv(os.path.join(dirpath, f"{name}.tsv"), rows)


def load_dataset(dirpath):
    """Load a directory written by ``save_dataset``."""
    try:
        return _read_dataset(dirpath)
    except InputError:
        raise
    except (ValueError, KeyError, IndexError) as exc:
        raise InputError(f"{dirpath}: malformed dataset: {exc!r}") from None


def _read_int_table(path, n_fields: int) -> np.ndarray:
    """(rows, n_fields) int64 array of a file of tab-separated integers; blank
    lines and ``#`` comments are skipped, and an empty file has no rows."""
    try:
        with warnings.catch_warnings():
            # an empty file is legal here; loadtxt warns about it
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    if table.size == 0:
        return table.reshape(0, n_fields)
    if table.shape[1] != n_fields:
        raise ValueError(f"{path}: expected {n_fields} fields, got {table.shape[1]}")
    return table


def _read_dataset(dirpath):
    meta = {}
    for _, (key, value) in _read_tsv(os.path.join(dirpath, "meta.tsv"), 2):
        meta[key] = int(value)
    store = InteractionStore(meta["users"], meta["items"], {
        split: _read_int_table(os.path.join(dirpath, f"{split}.tsv"), 2) for split in SPLITS})
    kg = KnowledgeGraph(meta["entities"], meta["relations"],
                        _read_int_table(os.path.join(dirpath, "kg.tsv"), 3))
    item_entities = np.full(meta["items"], -1, dtype=np.int64)
    table = _read_int_table(os.path.join(dirpath, "item_entities.tsv"), 2)
    bad = (table[:, 1] < 0) | (table[:, 1] >= kg.entity_count)
    if bad.any():
        row = tuple(table[np.argmax(bad)].tolist())
        raise InputError(f"{dirpath}: item_entities.tsv row {row} names an entity "
                         f"outside [0, {kg.entity_count})")
    item_entities[table[:, 0]] = table[:, 1]
    if (item_entities < 0).any():
        raise InputError(f"{dirpath}: item_entities.tsv is incomplete")
    id_maps = IdMaps.load(os.path.join(dirpath, "id_maps.tsv"))
    return store, kg, item_entities, id_maps


def dataset_stats(store: InteractionStore, kg: KnowledgeGraph) -> dict:
    density = store.interaction_count() / (store.user_count * store.item_count)
    return {
        "users": store.user_count,
        "items": store.item_count,
        "interactions": store.interaction_count(),
        "density": density,
        "entities": kg.entity_count,
        "relations": kg.original_relation_count,
        "triples": len(kg.triple_table),
        **{split: len(store._pairs[split]) for split in SPLITS},
    }
