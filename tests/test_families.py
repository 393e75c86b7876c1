"""Family generators, figure graphs, and nullity-set realizers."""

import hashlib
import random

import pytest

import sgn.families as families
from sgn import (
    GraphError,
    canonical_signature,
    find_cycles,
    is_balanced,
    nullity_rank,
    nullity_structural,
    serialize_edge_list,
)
from sgn.families import (
    _REALIZERS,
    InternalError,
    bicyclic_class,
    gen_cycle,
    gen_figure,
    gen_infinity,
    gen_path,
    gen_star,
    gen_theta,
    parse_family_spec,
    realize_nullity,
)
from sgn.formulas import nullity_infinity, upper_bound


def test_gen_cycle_signed():
    g = gen_cycle(4, 1)
    assert g.n == 4 and g.m == 4
    assert sum(1 for _, _, s in g.edges if s == -1) == 1
    assert nullity_rank(g) == 0


def test_gen_path_k2():
    assert nullity_rank(gen_path(2)) == 0


def test_gen_star_nullity():
    # rank of any star is 2, so the 4-vertex star has nullity 2
    assert nullity_rank(gen_star(4)) == 2


def test_gen_parameter_domains():
    with pytest.raises(GraphError):
        gen_path(0)
    with pytest.raises(GraphError):
        gen_cycle(2, 0)
    with pytest.raises(GraphError):
        gen_star(0)
    with pytest.raises(GraphError):
        gen_infinity(2, 3, 1)
    with pytest.raises(GraphError):
        gen_theta(1, 1, 2)


def test_gen_infinity_shared_vertex():
    g = gen_infinity(3, 3, 1, 1, 1)
    assert g.n == 5 and g.m == 6
    assert [len(w.vertices) for w in find_cycles(g)] == [3, 3]
    assert nullity_rank(g) == 0  # equal balanceness


def test_gen_infinity_concrete_values():
    g = gen_infinity(3, 4, 2, 1, 0)
    assert g.n == 7 and nullity_rank(g) == 1
    g = gen_infinity(4, 4, 2, 0, 0)
    assert g.n == 8 and nullity_rank(g) == 2


def test_gen_infinity_vertex_count():
    for p in range(3, 6):
        for q in range(3, 6):
            for l in range(1, 5):
                assert gen_infinity(p, q, l).n == p + q + l - 2


def test_gen_theta_vertex_count_and_signs():
    for p, q, l in [(2, 2, 1), (1, 2, 2), (3, 2, 4), (2, 3, 3)]:
        g = gen_theta(p, q, l)
        assert g.n == p + q + l - 1 and g.m == g.n + 1
        assert len(find_cycles(g)) == 3
    neg = gen_theta(2, 2, 1, 1, 1, 0)
    assert sum(1 for _, _, s in neg.edges if s == -1) == 2


def test_gen_theta_extremal_diamond():
    g = gen_theta(2, 2, 1, 1, 1, 0)
    assert g.n == 4 and nullity_rank(g) == 1


def test_gen_theta_refuses_a_stale_signs_tuple(monkeypatch):
    # the parities were once one tuple argument; passed that way it lands
    # in s1 and is refused before any graph is built
    built = []
    monkeypatch.setattr(families, "SignedGraph", lambda *args: built.append(args))
    with pytest.raises(GraphError, match=r"negative-edge parities s1, s2, s3 must be 0 or 1, got \(\(1, 1, 0\), 0, 0\)"):
        gen_theta(2, 2, 1, (1, 1, 0))
    assert built == []


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 4, 2, 4), "negative edge count sp = 4 is out of range 0..p = 0..3"),
        ((3, 4, 2, -1), "negative edge count sp = -1 is out of range 0..p = 0..3"),
        ((3, 4, 2, 0, 5), "negative edge count sq = 5 is out of range 0..q = 0..4"),
        ((3, 4, 2, 9, 9), "negative edge count sp = 9 is out of range 0..p = 0..3"),
    ],
)
def test_gen_infinity_names_the_count_out_of_range(args, message):
    with pytest.raises(GraphError) as exc:
        gen_infinity(*args)
    assert str(exc.value) == message


def test_gen_theta_all_positive_diamond():
    assert nullity_rank(gen_theta(2, 2, 1)) == 1
    assert nullity_rank(gen_theta(1, 2, 2)) == 1


# -- figure goldens: the nullities the constructions were built to realize ----


@pytest.mark.parametrize(
    "fig, eta",
    [("H1", 0), ("H2", 0), ("H4", 0), ("H5", 0), ("H6", 1), ("H7", 1),
     ("H8", 0), ("H9", 1), ("H11", 2), ("H12", 2)],
)
def test_fixed_figure_nullities(fig, eta):
    assert nullity_rank(gen_figure(fig)) == eta


def test_h3_pendant_cycle():
    # pendant deletion leaves a path on n - 3 vertices
    assert nullity_rank(gen_figure("H3", n=7)) == 1  # even cycle + pendant
    assert nullity_rank(gen_figure("H3", n=6)) == 0  # odd cycle + pendant


def test_h10_depends_on_free_quadrangle():
    assert nullity_rank(gen_figure("H10")) == 2
    assert nullity_rank(gen_figure("H10", s=1)) == 0


def test_h13_balanceness():
    assert nullity_rank(gen_figure("H13")) == 0  # both unbalanced
    assert nullity_rank(gen_figure("H13", sp=0, sq=0)) == 0
    assert nullity_rank(gen_figure("H13", sp=1, sq=0)) == 1


def test_g1_g3_realize_n_minus_6():
    for n in (7, 8, 10, 13):
        assert nullity_rank(gen_figure("G1", n=n)) == n - 6
    for n in (6, 9, 12):
        assert nullity_rank(gen_figure("G3", n=n)) == n - 6


def test_g6_realizes_n_minus_4():
    for n in (5, 6, 9, 12):
        assert nullity_rank(gen_figure("G6", n=n)) == n - 4


def test_g2_g4_realize_k():
    assert nullity_rank(gen_figure("G2", n=11, k=2)) == 2
    assert nullity_rank(gen_figure("G4", n=11, k=4)) == 4


def test_g5_realizes_zero():
    for n in (6, 7, 10):
        g = gen_figure("G5", n=n)
        assert nullity_rank(g) == 0
        assert not is_balanced(g)[0]


def test_g7_g8_parity_cases():
    assert nullity_rank(gen_figure("G7", n=10, k=3)) == 3  # n - k odd
    assert nullity_rank(gen_figure("G8", n=10, k=4)) == 4  # n - k even
    assert nullity_rank(gen_figure("G8", n=9, k=1)) == 1   # degenerate star


def test_figure_domain_errors():
    with pytest.raises(GraphError):
        gen_figure("G1", n=6)
    with pytest.raises(GraphError):
        gen_figure("G2", n=9, k=3)  # k > n - 7
    with pytest.raises(GraphError):
        gen_figure("Q9")
    with pytest.raises(GraphError):
        gen_figure("H13", sp=3)
    with pytest.raises(GraphError):
        gen_figure("H4", s=1)


def test_unknown_figure_id_is_reported_before_its_parameters():
    for signs in ({"s": 1}, {"sp": 0, "sq": 1}):
        with pytest.raises(GraphError) as exc:
            gen_figure("Q9", **signs)
        assert str(exc.value) == "unknown figure id 'Q9'"


# -- pinned labelings and messages ------------------------------------------------
#
# The nullity goldens above hold under any relabeling; these pins fix the exact
# vertex labels and edge signs of every figure and realizer, and the exact
# dispatch messages.  The digests are sha256 over the concatenated
# serialize_edge_list texts, in grid order; the values were taken before the
# figures were rebuilt on one shared broom builder.

_SMALLEST_N = {"H3": 4, "G1": 7, "G3": 6, "G5": 6, "G6": 5}
_K_OFFSET = {"G2": 7, "G4": 7, "G7": 5, "G8": 5}  # valid for 1 <= k <= n - offset


def _digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        h.update(serialize_edge_list(g).encode())
    return h.hexdigest()


def _figure_grid(fid):
    if fid in _SMALLEST_N:
        return [gen_figure(fid, n=n) for n in range(_SMALLEST_N[fid], 13)]
    if fid in _K_OFFSET:
        return [gen_figure(fid, n=n, k=k)
                for n in range(6, 13) for k in range(1, n - _K_OFFSET[fid] + 1)]
    if fid == "H10":
        return [gen_figure(fid, s=s) for s in (0, 1)]
    if fid == "H13":
        return [gen_figure(fid, sp=sp, sq=sq) for sp in (0, 1) for sq in (0, 1)]
    return [gen_figure(fid)]


FIGURE_DIGESTS = {
    "H1": "3f481ae71fe27653a4ddc67f1d196d29d9b812d6403e278b2d983c4103b19bd1",
    "H2": "0427305a82bf485fe42fa821c4af19a3ad1a26fdd34d0529c27893fe17295423",
    "H3": "ca2155a27547cc2928a0c1a403051394f9cd9b1aee687fa409544d29fa64b31d",
    "H4": "07c0987e79bdfbc75edbf7acf58c02d9f87750fdc33cce6c88ca185bda584ee7",
    "H5": "cf1f6b8012781890c35ae8a35a993c049b66348cc98bda2870a6e69845967e01",
    "H6": "ed94b8c5adb364759eb4372645da9030a211836bd24f883d00da3062d752c7e7",
    "H7": "7604557dc7f78a9f8a482c8088a6f4ee011a2275815e63610b26a12f72012865",
    "H8": "817fa09a1893dff2c80b19e926de902823a9bf575e454808583e26fadd3b0425",
    "H9": "415ad30852921b4e1a7008ac6ff701ee363b5b27931eb17c628c53c8b3cb8746",
    "H10": "65b0d3c83623a7f6be1ee7f2e2ccc71e84bbb89279ca6ecd8e153f0f141d6883",
    "H11": "405529973964f2097b3f26a437655a7fc9869ee453713bb83607d3aea5b7ed85",
    "H12": "9dc90cd88dd9228a27d3983ebe63daac74f9de6392eb70285570063743832607",
    "H13": "a1c2f045428c2394bf4f7e4ac1b129a0d9388020a9056ff73531f98391884228",
    "G1": "450c0a3bd4f81126da93e72ed3a62917c1a50e078eddd330f7e4ff9fe10fe82d",
    "G2": "8a82ea36c2be4a2476b2036ad343e1dc433399e1785abb7568544376b52d8cd2",
    "G3": "467c68c6a561509775c9b5e089fae9a96eb6806d9ac54b964bdcc64557311499",
    "G4": "5614ba2e05831960cc74d07250ea17391d10c613ddafe4e76593a0f5e6d15134",
    "G5": "e515ffa967cfbf480468d966e44d0b81aa97ff440f275600549bdca762b1a87f",
    "G6": "df825afeb9b2b68081b2a79dd41a369de1e6f575564a9af2ee354f1c3a846c7b",
    "G7": "93de4e4e0e5ee8f303a37e5e78a6a93e9fd182311b4647135c8603cd8f90c57f",
    "G8": "abee9b590de72dfdcce844e1dd452ed9c82f4486fb064e8267e5c482de33212c",
}

REALIZER_DIGESTS = {
    "BPlus": "c5cfe7b9e2cd479c43ad2d7053f13a830826dc054b89f1736f9da07078ab4a3a",
    "BPlusPlus": "7faaec15f5bdac5da09e79ac3bfc0e24cab11aa27e3bc6dd1b5e57cbe6a5b00e",
    "Theta": "890f4e7db94361210522f464f2ccc24bf7c85dc8481000fad09d82952f403161",
}


@pytest.mark.parametrize("fid", sorted(FIGURE_DIGESTS))
def test_figure_labelings_are_pinned(fid):
    assert _digest(_figure_grid(fid)) == FIGURE_DIGESTS[fid]


@pytest.mark.parametrize("cls", sorted(REALIZER_DIGESTS))
def test_realizer_labelings_are_pinned(cls):
    n_min, offset = _REALIZERS[cls][:2]
    graphs = [realize_nullity(cls, n, k) for n in range(n_min, 13) for k in range(n - offset + 1)]
    assert _digest(graphs) == REALIZER_DIGESTS[cls]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gen_figure("H10", sp=1), "H10 got unexpected parameters ['sp']"),
        (lambda: gen_figure("H13", sp=0, x=1), "H13 got unexpected parameters ['x']"),
        (lambda: gen_figure("H4", s=1), "H4 takes no sign parameters, got ['s']"),
        (lambda: gen_figure("G3", n=8, sq=0, s=1), "G3 takes no sign parameters, got ['s', 'sq']"),
        (lambda: gen_figure("G8", n=10), "G8 needs both n and k"),
        (lambda: gen_figure("G7", n=9, k=0), "G7 needs k >= 1, got k=0"),
        (lambda: gen_figure("G2", n=9, k=3), "G2 needs k <= n - 7, got n=9, k=3"),
        (lambda: gen_figure("h3"), "H3 needs n >= 4 (cycle plus pendant)"),
        (lambda: gen_figure("G1", n=6), "G1 needs n >= 7"),
        (lambda: gen_figure("H10", s=2), "H10 parity must be 0 or 1, got 2"),
        (lambda: gen_figure("H13", sp=3), "H13 parities must be 0 or 1"),
        (lambda: gen_figure("q9"), "unknown figure id 'q9'"),
        (lambda: gen_figure("H4", n=99), "H4 got unexpected parameters ['n']"),
        (lambda: gen_figure("H10", n=3, k=2), "H10 got unexpected parameters ['k', 'n']"),
        (lambda: gen_figure("G1", n=8, k=3), "G1 got unexpected parameters ['k']"),
        (lambda: gen_figure("G1", n=8, fig_id=3), "G1 takes no sign parameters, got ['fig_id']"),
        (lambda: realize_nullity("Theta", 5, 0), "Theta realizer needs n >= 6"),
        (lambda: realize_nullity("BPlusPlus", 9, 4), "BPlusPlus nullity set at n=9 is [0,3], got k=4"),
        (lambda: realize_nullity("Diamond", 10, 1),
         "unknown class 'Diamond'; expected BPlus, BPlusPlus, or Theta"),
    ],
)
def test_dispatch_messages_are_pinned(build, message):
    with pytest.raises(GraphError) as exc:
        build()
    assert str(exc.value) == message


# -- realizers ------------------------------------------------------------------


def test_realize_bplus_full_range():
    for n in (7, 9, 12):
        for k in range(0, n - 6 + 1):
            g = realize_nullity("BPlus", n, k)
            assert g.n == n
            assert nullity_rank(g) == k
            assert not is_balanced(g)[0]
            assert bicyclic_class(g) == "BPlus"


def test_realize_bplusplus_full_range():
    for n in (8, 10, 12):
        for k in range(0, n - 6 + 1):
            g = realize_nullity("BPlusPlus", n, k)
            assert g.n == n and nullity_rank(g) == k
            assert not is_balanced(g)[0]
            assert bicyclic_class(g) == "BPlusPlus"


def test_realize_theta_full_range():
    for n in (6, 9, 12):
        for k in range(0, n - 4 + 1):
            g = realize_nullity("Theta", n, k)
            assert g.n == n and nullity_rank(g) == k
            assert not is_balanced(g)[0]
            assert bicyclic_class(g) == "Theta"


@pytest.mark.parametrize("cls", sorted(_REALIZERS))
def test_realizers_beyond_the_matrix_ceiling(cls):
    # c = 2: the self-check and this test decide nullity with no matrix
    n = 20_000
    top = n - _REALIZERS[cls][1]
    for k in (0, 3, n // 2, top):
        g = realize_nullity(cls, n, k)
        eta, trace = nullity_structural(g)
        assert g.n == n and eta == k
        assert all(step.method != "RankOracle" for step in trace.steps)
        assert bicyclic_class(g) == cls and not is_balanced(g)[0]


# realizer class -> its class in formulas.upper_bound
BOUND_CLASSES = {"BPlus": "BPlus", "BPlusPlus": "BPlusPlus", "Theta": "ThetaUnbalanced"}


@pytest.mark.parametrize("cls", sorted(_REALIZERS))
def test_realizers_reach_the_nullity_bound_and_no_further(cls):
    n_min, offset = _REALIZERS[cls][:2]
    for n in range(n_min, 200):
        assert n - offset == upper_bound(BOUND_CLASSES[cls], n)
        with pytest.raises(GraphError):
            realize_nullity(cls, n, n - offset + 1)


def test_bplusplus_zero_parity_gives_nullity_zero_for_odd_and_even_cycles():
    # the k = 0 BPlusPlus realizer: a negative triangle sharing a vertex with
    # C_q carrying (q - 1) // 2 mod 2 negative edges
    for q in range(3, 5000):
        assert nullity_infinity(3, q, 1, 1, (q - 1) // 2 % 2) == 0


def test_realizer_self_check_failure_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(families, "nullity_structural", lambda g: (99, None))
    with pytest.raises(InternalError, match=r"^realize_nullity\(Theta, n=8, k=2\) built a graph with nullity 99; "
                       r"the construction is mis-transcribed$"):
        realize_nullity("Theta", 8, 2)


def test_realize_range_errors():
    with pytest.raises(GraphError):
        realize_nullity("BPlus", 6, 0)
    with pytest.raises(GraphError):
        realize_nullity("BPlus", 10, 5)
    with pytest.raises(GraphError):
        realize_nullity("Theta", 10, 7)
    with pytest.raises(GraphError):
        realize_nullity("Diamond", 10, 1)


def test_bicyclic_class_detection():
    assert bicyclic_class(gen_infinity(3, 4, 3)) == "BPlus"
    assert bicyclic_class(gen_infinity(3, 4, 1)) == "BPlusPlus"
    assert bicyclic_class(gen_theta(2, 2, 1)) == "Theta"
    with pytest.raises(GraphError):
        bicyclic_class(gen_path(4))


# -- family specs -----------------------------------------------------------------


def test_spec_cycle():
    assert parse_family_spec("cycle:n=4,s=0") == gen_cycle(4, 0)
    assert parse_family_spec("family:cycle:n=4,s=1") == gen_cycle(4, 1)


def test_spec_figure_g1():
    g = parse_family_spec("figure:id=G1,n=10")
    assert g.n == 10 and g.m == 11  # bicyclic: m = n + 1


def test_spec_realize():
    g = parse_family_spec("realize:class=BPlus,n=12,k=6")
    assert nullity_rank(g) == 6 == 12 - 6


def test_spec_infinity_and_theta():
    assert parse_family_spec("infinity:p=3,q=4,l=2,sp=1,sq=0") == gen_infinity(3, 4, 2, 1, 0)
    assert parse_family_spec("theta:p=2,q=2,l=1,s1=1,s2=1") == gen_theta(2, 2, 1, 1, 1, 0)


def test_spec_errors():
    with pytest.raises(GraphError):
        parse_family_spec("cycle:n=four")
    with pytest.raises(GraphError):
        parse_family_spec("pyramid:n=4")
    with pytest.raises(GraphError):
        parse_family_spec("cycle:n=4,bogus=1")
    with pytest.raises(GraphError):
        parse_family_spec("cycle")


@pytest.mark.parametrize(
    "spec, key",
    [("cycle:n=4,n=5", "n"), ("figure:id=G1,id=G3,n=8", "id"),
     ("realize:class=Theta,n=8,k=4,k=4", "k")],
)
def test_spec_rejects_repeated_keys(spec, key):
    with pytest.raises(GraphError) as exc:
        parse_family_spec(spec)
    assert str(exc.value) == f"family parameter {key} given more than once"


# The seeded spec set: every kind with and without the ``family:`` prefix,
# with keys dropped, repeated, reordered, stray or malformed and values
# malformed or out of range, plus figure specs with two bad keys.  The
# digest is sha256 over each spec and its result, the serialize_edge_list
# text or the error's type and message; it was taken from the if/elif
# parser that the signature-bound table replaced, and retaken when the
# theta parity and infinity count messages came to name s1, s2, s3 and
# sp, sq (2 163 of the 36 000 results changed, each in that message alone).

_SPEC_KEYS = {
    "path": "n",
    "cycle": "n s",
    "star": "k",
    "infinity": "p q l sp sq",
    "theta": "p q l s1 s2 s3",
    "realize": "class n k",
}
_FIGURE_KEYS = {"H3": "n", "H10": "s", "H13": "sp sq", **dict.fromkeys(["G1", "G3", "G5", "G6"], "n"),
                **dict.fromkeys(["G2", "G4", "G7", "G8"], "n k")}
_SPEC_KINDS = [*_SPEC_KEYS, "figure", "pyramid", "", "Cycle", " theta "]
_STRAY_KEYS = ["x", "n", "k", "s", "sp", "id", "class", "N", " n", "", "s4", "signs"]
_BAD_VALUES = ["-1", "", "x", " 4 ", "1.5", "+3", "007", "1_0", "200001"]
_FIGURE_IDS = [*families._FIGURES, "g1", "h13", "Q9", ""]
_CLASSES = [*_REALIZERS, "bplus", "Diamond", ""]


def _spec_value(rng, key):
    if rng.random() < 0.1:
        return rng.choice(_BAD_VALUES + _FIGURE_IDS)
    if key in ("id", "class"):
        return rng.choice(_FIGURE_IDS if key == "id" else _CLASSES)
    return str(rng.randrange(3 if key.startswith("s") else 13))


def _random_spec(rng):
    kind, fid = rng.choice(_SPEC_KINDS), rng.choice(_FIGURE_IDS)
    if kind == "figure":
        keys = ["id", *_FIGURE_KEYS.get(fid.upper(), "").split()]
        keys += [key for key in ("n", "k", "s", "sp", "sq") if key not in keys and rng.random() < 0.05]
    else:
        keys = _SPEC_KEYS.get(kind.strip().lower(), "n").split()
    keys = [key for key in keys if rng.random() < 0.92]
    if rng.random() < 0.3:
        rng.shuffle(keys)
    if rng.random() < 0.15:
        keys.insert(rng.randrange(len(keys) + 1), rng.choice(_STRAY_KEYS))
    if keys and rng.random() < 0.05:
        keys.append(rng.choice(keys))
    items = [f"{key}={fid if key == 'id' and rng.random() < 0.9 else _spec_value(rng, key)}"
             for key in keys]
    if rng.random() < 0.05:
        items.insert(rng.randrange(len(items) + 1), rng.choice(["n", "", "=3", "k:2"]))
    prefix = rng.choice(["", "family:", " family:"])
    sep = ":" if items or rng.random() < 0.5 else ""
    return f"{prefix}{kind}{sep}{','.join(items)}"


def _two_bad_figure_keys(rng):
    fid = rng.choice(list(families._FIGURES))
    keys = rng.sample(["n", "k", "s", "sp", "sq", "x"], 4)
    bad = rng.sample(range(4), 2)
    items = [f"{key}={rng.choice(['x', '', '-1', '1.5', '200001']) if i in bad else rng.randrange(13)}"
             for i, key in enumerate(keys)]
    return f"figure:id={fid}," + ",".join(items)


def _seeded_specs():
    rng = random.Random(2029)
    specs = dict.fromkeys(_two_bad_figure_keys(rng) for _ in range(6_000))
    while len(specs) < 36_000:
        specs[_random_spec(rng)] = None
    return list(specs)


def test_seeded_spec_set_is_pinned():
    h = hashlib.sha256()
    for spec in _seeded_specs():
        try:
            result = serialize_edge_list(parse_family_spec(spec))
        except GraphError as exc:
            result = f"{type(exc).__name__}: {exc}"
        h.update(f"{spec}\t{result}\n".encode())
    assert h.hexdigest() == SPEC_SET_DIGEST


SPEC_SET_DIGEST = "0bfeff7ec8b8dfe5835d5ae57823771fbd426f924e30ee75b2c5dca9a34523e3"


def test_gen_cycle_sign_positions_are_canonical_but_free():
    # the canonical negative edge placement is switching-equivalent to any
    # other placement with the same parity
    a = gen_cycle(6, 1)
    b = gen_cycle(6, 3)
    assert canonical_signature(a) == canonical_signature(b)
