"""Seeded generators: determinism, validity, and config checking."""

import hashlib

import pytest

from andorxy import (
    is_andor_tree,
    is_xy_tree,
    serialize_graph,
    validate_andor,
    validate_xy,
)
from andorxy.generators import (
    GeneratorConfig,
    gen_andor,
    gen_andor_tree,
    gen_xy,
    gen_xy_tree,
)

ALL_KINDS = [
    (gen_andor, validate_andor),
    (gen_andor_tree, validate_andor),
    (gen_xy, validate_xy),
    (gen_xy_tree, validate_xy),
]


@pytest.mark.parametrize("gen,validate", ALL_KINDS)
def test_outputs_validate(gen, validate):
    for seed in range(25):
        cfg = GeneratorConfig(n=1 + seed % 30, seed=seed, density=(seed % 5) / 4)
        g = gen(cfg)
        rep = validate(g)
        assert rep.ok, rep.violations
        assert len(g.labels) == cfg.n


@pytest.mark.parametrize("gen", [g for g, _ in ALL_KINDS])
def test_same_seed_same_bytes(gen):
    cfg = GeneratorConfig(n=40, seed=777, density=0.3)
    a = serialize_graph(gen(cfg))
    b = serialize_graph(gen(cfg))
    assert a == b


def test_different_seeds_differ():
    a = serialize_graph(gen_andor(GeneratorConfig(n=30, seed=1)))
    b = serialize_graph(gen_andor(GeneratorConfig(n=30, seed=2)))
    assert a != b


def test_trees_satisfy_tree_predicates():
    for seed in range(20):
        assert is_andor_tree(gen_andor_tree(GeneratorConfig(n=1 + seed, seed=seed)))
        assert is_xy_tree(gen_xy_tree(GeneratorConfig(n=1 + seed, seed=seed)))


def test_n_one_single_vertex():
    g = gen_andor_tree(GeneratorConfig(n=1, seed=0))
    assert len(g.labels) == 1 and not g.edges
    x = gen_xy_tree(GeneratorConfig(n=1, seed=0))
    assert list(x.labels.values()) == [(0, 0)]


def test_weight_range_respected():
    cfg = GeneratorConfig(n=60, seed=5, weight_lo=3, weight_hi=4, density=0.2)
    g = gen_andor(cfg)
    assert g.edges and all(w in (3, 4) for w in g.edges.values())
    assert not g.zero_weights_allowed


def test_zero_lo_marks_zero_weights_allowed():
    g = gen_andor(GeneratorConfig(n=20, seed=3, weight_lo=0, weight_hi=2))
    assert g.zero_weights_allowed
    assert validate_andor(g).ok


def test_and_fraction_extremes():
    all_and = gen_andor(GeneratorConfig(n=15, seed=2, and_fraction=1.0))
    assert set(all_and.labels.values()) == {"and"}
    all_or = gen_andor(GeneratorConfig(n=15, seed=2, and_fraction=0.0))
    assert set(all_or.labels.values()) == {"or"}


def test_density_one_gives_complete_dag():
    cfg = GeneratorConfig(n=8, seed=0, density=1.0)
    g = gen_andor(cfg)
    assert len(g.edges) == 8 * 7 // 2


def test_vertex_ids_sort_in_construction_order():
    g = gen_andor(GeneratorConfig(n=12, seed=0))
    ids = sorted(g.labels)
    assert ids[0] == g.source
    assert ids == [f"v{i:02d}" for i in range(12)]


@pytest.mark.parametrize(
    "bad",
    [
        dict(n=0),
        dict(n=3, weight_lo=-1),
        dict(n=3, weight_lo=5, weight_hi=2),
        dict(n=3, weight_hi=2**31),
        dict(n=3, and_fraction=1.5),
        dict(n=3, density=-0.1),
    ],
)
def test_bad_configs_rejected(bad):
    with pytest.raises(ValueError):
        gen_andor(GeneratorConfig(**bad))


GENERATORS = {g.__name__: g for g, _ in ALL_KINDS}

# (generator, GeneratorConfig fields, sha256 of serialize_graph's text, sha256
# of the dicts' items in insertion order), the first 16 hex digits of each.
# Recorded from the randrange/randint generators; any change of the stream
# or of the insertion order shows here.
PINNED = [
    ("gen_andor", (1, 0, 1, 8, 0.5, 0.25), "7628175be86370d5", "b84d0a4a2e114ad7"),
    ("gen_andor", (2, 1, 1, 8, 0.5, 0.25), "49bed665d826c839", "bf1bccef42b439cc"),
    ("gen_andor", (40, 7, 0, 3, 0.5, 1.0), "4f365611051a01b1", "e5b0707c6ce2833b"),
    ("gen_andor", (60, 11, 5, 5, 0.3, 0.0), "cb879b0f86d652d1", "f42c9d963ca394f7"),
    ("gen_andor_tree", (1, 4, 1, 8, 0.5, 0.25), "1ae7a2a66337986e", "aca237edb2cf4d39"),
    ("gen_andor_tree", (2, 3, 0, 0, 0.5, 0.25), "142511a18ac36898", "cb360edac88c3bf4"),
    ("gen_andor_tree", (300, 12, 1, 2147483647, 0.5, 0.25), "2b6535bf69c33e76", "2edd3f8e786755b7"),
    ("gen_xy", (2, 5, 1, 8, 0.5, 1.0), "818f69790f816c96", "8614df0d1fe12858"),
    ("gen_xy", (50, 13, 0, 2147483647, 0.5, 0.3), "ea6d8fa093ed106c", "024d12db5c255a11"),
    ("gen_xy_tree", (1, 0, 1, 8, 0.5, 0.25), "ea6e3acd9463e0a8", "ca4ad75372e5d8ab"),
    ("gen_xy_tree", (2, 8, 7, 8, 0.5, 0.25), "c6599155ae1c6b5d", "fc7752cbf760f240"),
    ("gen_xy_tree", (400, 21, 1, 1000, 0.5, 0.25), "dfbe7739678356cf", "dbc3eaaf9b91cb31"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,fields,text_digest,order_digest", PINNED)
def test_stream_is_pinned(name, fields, text_digest, order_digest):
    g = GENERATORS[name](GeneratorConfig(*fields))
    assert _sha(serialize_graph(g)) == text_digest
    order = (list(g.labels.items()), list(g.edges.items()), g.source, g.zero_weights_allowed)
    assert _sha(repr(order)) == order_digest
