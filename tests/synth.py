"""Shared synthetic fixtures for the test suite."""

import json
import struct

import numpy as np

from kgrec import autodiff as ad
from kgrec.graph import IdMaps, InputError, InteractionStore, KnowledgeGraph, Triple, _read_tsv


def softmax_rows(a):
    """Row-wise softmax as one node, shifted by each row's maximum: the
    reference that the fused softmax ops are checked against."""
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    out = ad.Tensor(e / e.sum(axis=1, keepdims=True), op="softmax_rows")

    def backprop():
        ad._accum(a, ad._softmax_backward(out.grad, out.data), owned=True)

    return ad._finish(out, (a,), backprop)


def raw_artifact(magic, version, header, payload=b""):
    """The bytes of an artifact file with a hand-made header (a JSON-encoded
    object, or raw bytes) and payload."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<II", version, len(header)) + header + payload


def corrupt_bytes(data, offset, value, truncate):
    """``data`` cut at ``offset``, or with the byte there set to ``value``."""
    return data[:offset] if truncate else data[:offset] + bytes([value]) + data[offset + 1:]


def neighbors_of(kg, entity):
    """The distinct neighbor entities of ``entity``, ascending, read from the
    graph's CSR arrays."""
    return kg.neighbor_entities[kg.neighbor_offsets[entity]:kg.neighbor_offsets[entity + 1]]


def is_neighbor(kg, entity, other):
    row = neighbors_of(kg, entity)
    at = np.searchsorted(row, other)
    return bool(at < row.size and row[at] == other)


def sum_row_groups(a, k):
    """Sum consecutive groups of k rows, as one node; inverse layout of
    ``ad.repeat_rows``."""
    n, m = a.shape
    if k < 1 or n % k != 0:
        raise ad.ShapeError(f"sum_row_groups: {n} rows not divisible by k={k}")
    out = ad.Tensor(a.data.reshape(n // k, k, m).sum(axis=1), op="sum_row_groups")

    def backprop():
        ad._accum(a, np.repeat(out.grad, k, axis=0), owned=True)

    return ad._finish(out, (a,), backprop)


def unfused_history_softmax(a_t, h, b):
    """softmax_rows(tanh(a_t + h + b)) from elementary ops."""
    return softmax_rows(ad.tanh(ad.add(ad.add(a_t, h), b)))


def unfused_history_context(beta, values, pre, mask=None):
    """relu(pre + mask ⊙ sum_j beta_j v_j) from elementary ops: one shared
    history without ``mask``, n value rows per target with it."""
    if mask is None:
        context = ad.matmul(beta, values)
    else:
        t, n = beta.shape
        context = ad.mul(sum_row_groups(ad.mul(ad.reshape(beta, t * n, 1), values), n),
                         ad.constant(mask))
    return ad.relu(ad.add(pre, context))


def unfused_pair_scores(e_u, e_t, c_u, f_t):
    """e_u·e_t + c_u·f_t per row from elementary ops."""
    return ad.add(ad.row_sums(ad.mul(e_u, e_t)), ad.row_sums(ad.mul(c_u, f_t)))


def tape_nodes(*roots, exclude=()):
    """Op nodes on the tape behind ``roots``: every node reached through parent
    links that records a gradient and is not a parameter, less the nodes
    behind ``exclude``."""
    def behind(starts):
        seen, stack = {}, list(starts)
        while stack:
            node = stack.pop()
            if id(node) not in seen and node.requires_grad and not node.op.startswith("param:"):
                seen[id(node)] = node
                stack.extend(node._parents)
        return seen

    skip = behind(exclude)
    return [node for key, node in behind(roots).items() if key not in skip]


def unfused_gate(s, a, b):
    """s ⊙ a + (1 - s) ⊙ b from elementary ops."""
    return ad.add(ad.mul(s, a), ad.mul(ad.sub(1.0, s), b))


def unfused_gru_cell(x, h, p):
    """One GRU step from elementary ops."""
    z = ad.sigmoid(ad.add(ad.affine(x, p.wz, p.bz), ad.matmul(h, p.uz)))
    r = ad.sigmoid(ad.add(ad.affine(x, p.wr, p.br), ad.matmul(h, p.ur)))
    c = ad.tanh(ad.add(ad.affine(x, p.wc, p.bc), ad.matmul(ad.mul(r, h), p.uc)))
    return unfused_gate(z, c, h)


def gru_run(x, mask, p):
    """Reference for ``ad.gru_sequence``: the unfused cell over each step of
    the step-major rows of x, from a zero state, with a masked step gated
    back to the previous state."""
    mask = np.asarray(mask, dtype=np.float64)
    units, n_steps = mask.shape
    h = ad.constant(np.zeros((units, p.uz.shape[0])))
    for k in range(n_steps):
        x_k = ad.gather_rows(x, np.arange(k * units, (k + 1) * units))
        h = unfused_gate(ad.constant(mask[:, k:k + 1]), unfused_gru_cell(x_k, h, p), h)
    return h


# each weight that multiplies a concatenation, as its row blocks top first
CONCAT_BLOCKS = {
    "rel_fuse_W": ("rel_fuse_W_r", "rel_fuse_W_t"),
    "attn_W": ("attn_W_h", "attn_W_rt"),
    "agg_W": ("agg_W_h", "agg_W_c"),
    "user_agg_W": ("user_agg_W_u", "user_agg_W_he", "user_agg_W_hf"),
}


def stack_rows(params, names):
    """The parameters ``names`` stacked top to bottom, built differentiably as
    sum_k E_k W_k with constant 0/1 selectors E_k, so each block's gradient
    comes back as exactly its own rows of the stack's."""
    blocks = [params[name] for name in names]
    total = sum(b.shape[0] for b in blocks)
    out, start = None, 0
    for block in blocks:
        rows = block.shape[0]
        select = np.zeros((total, rows))
        select[start:start + rows] = np.eye(rows)
        term = ad.matmul(ad.constant(select), block)
        out = term if out is None else ad.add(out, term)
        start += rows
    return out


def concat_weight(params, name):
    """A concatenated weight of ``CONCAT_BLOCKS``, stacked from its blocks."""
    return stack_rows(params, CONCAT_BLOCKS[name])


def write_concat(params, name, value):
    """``params[name].data[...] = value`` for a concatenated weight of
    ``CONCAT_BLOCKS``: the value, broadcast to the stack, goes into its blocks."""
    blocks = [params[block] for block in CONCAT_BLOCKS[name]]
    full = np.empty((sum(b.shape[0] for b in blocks), blocks[0].shape[1]))
    full[...] = value
    for block, part in zip(blocks, np.split(full, len(blocks))):
        block.data[...] = part


def local_context(kg, entity):
    """All (relation, tail) neighbors of ``entity`` in both edge directions,
    sorted, by brute force over ``kg.triple_table``."""
    pairs = []
    for h, r, t in kg.triple_table.tolist():
        if h == entity:
            pairs.append((r, t))
        if t == entity:
            pairs.append((kg.inverse(r), h))
    return sorted(pairs)


def random_kg(rng, n_entities=None, n_relations=None, n_triples=None):
    n_entities = n_entities or int(rng.integers(3, 13))
    n_relations = n_relations or int(rng.integers(1, 4))
    n_triples = n_triples or int(rng.integers(n_entities, 3 * n_entities))
    triples = [Triple(int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                      int(rng.integers(n_entities)))
               for _ in range(n_triples)]
    return KnowledgeGraph(n_entities, n_relations, triples)


def chain_kg():
    """a -> b -> c with a single relation."""
    return KnowledgeGraph(3, 1, [Triple(0, 0, 1), Triple(1, 0, 2)])


def star_kg(spokes=5):
    return KnowledgeGraph(spokes + 1, 1, [Triple(0, 0, i + 1) for i in range(spokes)])


def random_store(rng, n_users=5, n_items=10, per_user=4):
    pairs = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=min(per_user, n_items), replace=False):
            pairs.append((u, int(i)))
    return InteractionStore(n_users, n_items, {"train": pairs})


def random_model_setup(rng, n_users=4, n_entities=14, n_relations=2, n_items=7,
                       dim=5, local_size=3, history_size=2, scale=1.0, **flags):
    """A random graph plus freshly initialized model, for scoring tests."""
    from kgrec.model import GraphContextModel, ModelConfig, init_params

    kg = random_kg(rng, n_entities, n_relations, 3 * n_entities)
    item_entities = np.arange(n_items)
    cfg = ModelConfig(dim=dim, local_size=local_size, history_size=history_size,
                      **flags)
    params = init_params(cfg, n_users, n_entities, kg.relation_embedding_count, rng)
    if scale != 1.0:
        for _, t in params.items():
            t.data *= scale
    model = GraphContextModel(cfg, params, item_entities)
    return kg, model, params, cfg, item_entities


def random_item_context(rng, kg, n_neighbors, max_context=3):
    neighbors = tuple(
        (int(rng.integers(kg.relation_count)), int(rng.integers(kg.entity_count)))
        for _ in range(n_neighbors))
    walk = tuple(int(e) for e in rng.choice(kg.entity_count,
                                            size=int(rng.integers(0, max_context + 1)),
                                            replace=False))
    return neighbors, walk


def random_score_context(rng, kg, model, n_items, with_history=True):
    from kgrec.model import ItemContext, ScoreContext

    s = model.cfg.local_size
    nb, wk = random_item_context(rng, kg, s)
    history = ()
    if with_history:
        entries = []
        for _ in range(model.cfg.history_size):
            j = int(rng.integers(n_items))
            nbj, wkj = random_item_context(rng, kg, s)
            entries.append((j, ItemContext(nbj, wkj)))
        history = tuple(entries)
    return ScoreContext(ItemContext(nb, wk), history)


def planted_dataset(seed=0, n_users=50, n_items=100, core=12):
    """Two latent item groups with a dense 'core' per group.

    Every user draws 5 distinct core items of their preferred group, split
    3 train / 1 valid / 1 test, so collaborative signal identifies the
    held-out item.  The graph links each item to its group entity and each
    group to a hub, giving walks something to traverse.
    """
    rng = np.random.default_rng(seed)
    half = n_items // 2
    group_ent = [n_items, n_items + 1]
    hub_ent = [n_items + 2, n_items + 3]
    triples = [Triple(i, 0, group_ent[0] if i < half else group_ent[1])
               for i in range(n_items)]
    triples += [Triple(group_ent[g], 1, hub_ent[g]) for g in range(2)]
    kg = KnowledgeGraph(n_items + 4, 2, triples)
    item_entities = np.arange(n_items)
    splits = {"train": [], "valid": [], "test": []}
    for u in range(n_users):
        lo = 0 if u % 2 == 0 else half
        chosen = rng.choice(core, size=5, replace=False) + lo
        splits["train"] += [(u, int(i)) for i in chosen[:3]]
        splits["valid"].append((u, int(chosen[3])))
        splits["test"].append((u, int(chosen[4])))
    store = InteractionStore(n_users, n_items, splits)
    return store, kg, item_entities


def write_planted_files(dirpath, seed=0, n_users=20, n_items=30, core=8):
    """Raw tsv files (string ids) for CLI-level pipeline tests."""
    rng = np.random.default_rng(seed)
    half = n_items // 2
    dirpath.mkdir(parents=True, exist_ok=True)
    ratings = dirpath / "ratings.tsv"
    with open(ratings, "w") as fh:
        fh.write("# user\titem\trating\n")
        for u in range(n_users):
            lo = 0 if u % 2 == 0 else half
            for i in rng.choice(core, size=5, replace=False) + lo:
                fh.write(f"u{u}\ti{int(i)}\t5\n")
    kg_file = dirpath / "kg.tsv"
    with open(kg_file, "w") as fh:
        for i in range(n_items):
            group = "groupA" if i < half else "groupB"
            fh.write(f"e{i}\tin_group\t{group}\n")
        fh.write("groupA\trelated_to\thubA\n")
        fh.write("groupB\trelated_to\thubB\n")
    item_map = dirpath / "item_map.tsv"
    with open(item_map, "w") as fh:
        for i in range(n_items):
            fh.write(f"i{i}\te{i}\n")
    return ratings, kg_file, item_map


def _intern_one(maps, namespace, raw):
    return int(maps.intern(namespace, [raw])[0])


def reference_load_interactions(path, threshold=None):
    """The per-line ingest that ``graph.load_interactions`` replaces: one
    ``intern`` call per field and a set of the pairs seen so far."""
    maps = IdMaps()
    pairs = []
    seen = set()
    for lineno, (raw_user, raw_item, raw_rating) in _read_tsv(path, 3):
        try:
            rating = float(raw_rating)
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric rating {raw_rating!r}") from None
        if threshold is not None and not rating > threshold:
            continue
        u = _intern_one(maps, "user", raw_user)
        i = _intern_one(maps, "item", raw_item)
        if (u, i) not in seen:
            seen.add((u, i))
            pairs.append((u, i))
    if not pairs:
        raise InputError(f"{path}: no interactions retained")
    store = InteractionStore.unsplit(pairs, maps.count("user"), maps.count("item"))
    return store, maps


def reference_load_kg(kg_path, item_map_path, id_maps):
    """The per-line ingest that ``graph.load_kg`` replaces: one ``intern``
    call per field, a list of ``Triple``s and a count of every mapped entity."""
    triples = []
    for _, (raw_h, raw_r, raw_t) in _read_tsv(kg_path, 3):
        h = _intern_one(id_maps, "entity", raw_h)
        r = _intern_one(id_maps, "relation", raw_r)
        t = _intern_one(id_maps, "entity", raw_t)
        triples.append(Triple(h, r, t))
    if not triples:
        raise InputError(f"{kg_path}: no triples loaded")
    kg = KnowledgeGraph(id_maps.count("entity"), id_maps.count("relation"), triples)

    n_items = id_maps.count("item")
    item_entities = np.full(n_items, -1, dtype=np.int64)
    duplicates = []
    unknown = []
    for lineno, (raw_item, raw_entity) in _read_tsv(item_map_path, 2):
        if not id_maps.has("item", raw_item):
            continue
        item = id_maps.dense("item", raw_item)
        if not id_maps.has("entity", raw_entity):
            unknown.append(f"line {lineno}: {raw_item!r} -> unknown entity {raw_entity!r}")
            continue
        if item_entities[item] != -1:
            duplicates.append(f"line {lineno}: {raw_item!r} mapped more than once")
            continue
        item_entities[item] = id_maps.dense("entity", raw_entity)
    if unknown:
        raise InputError(f"{item_map_path}: " + "; ".join(unknown))
    if duplicates:
        raise InputError(f"{item_map_path}: " + "; ".join(duplicates))
    missing = [id_maps.raw("item", i) for i in range(n_items) if item_entities[i] == -1]
    if missing:
        raise InputError(f"{item_map_path}: items without an entity: {missing[:10]}")
    mapped = item_entities.tolist()
    if len(set(mapped)) != len(mapped):
        shared = sorted({e for e in mapped if mapped.count(e) > 1})
        raise InputError(f"{item_map_path}: entities shared by several items: {shared[:10]}")
    return kg, item_entities
