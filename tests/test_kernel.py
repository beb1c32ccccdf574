import json

import pytest
from hypothesis import given, settings

from ueds.errors import IsolatedVertexPresent
from ueds.generate import GenSpec, gen
from ueds.graph import Graph, emit_graph, greedy_maximal_matching, parse_graph
from ueds.kernel import (
    BLUE,
    GREEN,
    PURPLE,
    RED,
    DecidedYes,
    Reduced,
    color_vertices,
    kernelize,
)
from ueds.oracle import upper_eds_exact

from conftest import all_graphs_on, graph_from_pairs, graphs
from kernel_reference import (
    PreconditionViolated,
    kernelize_reference,
    rule1_isolated_vertex,
    rule2_isolated_edge,
    rule3_prune_blue_twins,
    rule4_big_green,
    rule5_many_blue,
    rule6_remove_red,
    rule7_size_bound,
)


def _outcome(out):
    """Everything a kernel outcome reports, comparable with ==."""
    if isinstance(out, DecidedYes):
        return ("decided", out.rule, out.hint, out.trace)
    return ("reduced", out.graph.n, out.graph.edges, out.k, out.trace)


class TestColoring:
    def test_p4(self, p4):
        col = color_vertices(p4)
        assert col.colors == (BLUE, PURPLE, PURPLE, BLUE)
        assert col.blue == (0, 3) and col.purple == (1, 2)
        assert col.red == () and col.green == ()

    def test_c4_all_green(self, c4):
        assert set(color_vertices(c4).colors) == {GREEN}

    def test_all_four_classes(self, twelve_vertex_all_colors):
        col = color_vertices(twelve_vertex_all_colors)
        assert col.blue == (0, 1, 2)
        assert col.purple == (3, 4, 5)
        assert col.red == (6, 7)
        assert col.green == (8, 9, 10, 11)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexPresent):
            color_vertices(Graph(3, [(0, 1)]))

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_partition_and_green_support(self, g):
        if any(g.degree(v) == 0 for v in range(g.n)):
            return
        col = color_vertices(g)
        assert len(col.blue) + len(col.purple) + len(col.red) + len(col.green) == g.n
        # every green vertex keeps a green neighbor
        for v in col.green:
            assert any(col.colors[u] == GREEN for u, _ in g.adj[v])
        # definitional spot checks
        for v in range(g.n):
            if col.colors[v] == BLUE:
                assert g.degree(v) == 1
            if col.colors[v] == PURPLE:
                assert any(col.colors[u] == BLUE for u, _ in g.adj[v])
            if col.colors[v] == RED:
                assert all(col.colors[u] == PURPLE for u, _ in g.adj[v])

    @given(graphs(max_n=6))
    @settings(max_examples=40)
    def test_invariant_under_relabeling(self, g):
        if any(g.degree(v) == 0 for v in range(g.n)):
            return
        perm = list(reversed(range(g.n)))
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        col = color_vertices(g)
        col2 = color_vertices(relabeled)
        assert all(col.colors[v] == col2.colors[perm[v]] for v in range(g.n))


class TestIndividualRules:
    def test_rule1(self, p4):
        g = Graph(3, [(0, 1)])  # K2 plus isolated vertex 2
        reduced = rule1_isolated_vertex(g, 1)
        assert reduced is not None and reduced[0].n == 2 and reduced[1] == 1
        assert rule1_isolated_vertex(p4, 1) is None

    def test_rule2(self, k2, p4):
        reduced = rule2_isolated_edge(k2, 1)
        assert reduced is not None
        assert reduced[0].n == 0 and reduced[1] == 0
        assert rule2_isolated_edge(p4, 1) is None

    def test_rule3_star_collapses_to_edge(self, k13, p4):
        reduced = rule3_prune_blue_twins(k13, 1)
        assert reduced is not None
        g2, k2_, lines = reduced
        assert (g2.n, g2.m, k2_) == (2, 1, 1)
        assert all(line.startswith("rule=3 action=delete-vertex") for line in lines)
        assert rule3_prune_blue_twins(p4, 1) is None

    def test_rule4(self, c4):
        assert rule4_big_green(c4, 3) is None  # max green degree 2 < 6
        decided = rule4_big_green(c4, 1)  # degree 2 >= 2
        assert decided is not None and decided.rule == 4
        assert upper_eds_exact(c4).gamma_prime >= 1

    def test_rule4_matches_figure_shape(self):
        # a degree-8 green hub with all neighbors of degree >= 2; k=4 decides
        hub = 0
        ring = list(range(1, 9))
        pendants = {1: 9, 2: 10, 3: 11}
        pairs = [(hub + 1, v + 1) for v in ring]
        pairs += [(7 + 1, 8 + 1), (7 + 1, 6 + 1), (6 + 1, 5 + 1), (5 + 1, 4 + 1)]
        pairs += [(v + 1, p + 1) for v, p in pendants.items()]
        g = graph_from_pairs(12, pairs)
        assert g.degree(hub) == 8
        decided = rule4_big_green(g, 4)
        assert decided is not None and decided.rule == 4
        assert upper_eds_exact(g).gamma_prime >= 4

    def test_rule5(self, p4):
        assert rule5_many_blue(p4, 2) is not None
        assert rule5_many_blue(p4, 3) is None
        two_p3 = graph_from_pairs(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
        assert rule5_many_blue(two_p3, 2) is not None
        assert upper_eds_exact(two_p3).gamma_prime >= 2

    def test_rule6(self, p4, twelve_vertex_all_colors):
        assert rule6_remove_red(p4, 1) is None
        reduced = rule6_remove_red(twelve_vertex_all_colors, 3)
        assert reduced is not None
        g2, k2_, _ = reduced
        assert g2.n == 10 and k2_ == 3
        # answer preserved on both sides of the removal
        before = upper_eds_exact(twelve_vertex_all_colors).gamma_prime
        after = upper_eds_exact(g2).gamma_prime
        assert (before >= 3) == (after >= 3)

    def test_rule7_requires_earlier_rules_exhausted(self, p4):
        with pytest.raises(PreconditionViolated):
            rule7_size_bound(p4, 2)  # rule 5 still applies

    def test_rule7_bound_arithmetic(self, c4):
        assert rule7_size_bound(c4, 2) is None  # 4 <= 14
        # disjoint C4s are irreducible at k=2 (all green, degrees 2 < 2k,
        # no blues or reds); the bound 4k^2-2 = 14 fires above 14 vertices
        def cycles(count):
            pairs = []
            for c in range(count):
                base = 4 * c
                pairs += [
                    (base + 1, base + 2),
                    (base + 2, base + 3),
                    (base + 3, base + 4),
                    (base + 4, base + 1),
                ]
            return graph_from_pairs(4 * count, pairs)

        assert rule7_size_bound(cycles(3), 2) is None  # 12 <= 14
        decided = rule7_size_bound(cycles(4), 2)  # 16 > 14
        assert decided is not None and decided.rule == 7
        assert upper_eds_exact(cycles(4), limit=40).gamma_prime >= 2


class TestKernelize:
    def test_k2_decided_via_rule2(self, k2):
        out = kernelize(k2, 1)
        assert isinstance(out, DecidedYes)
        assert any(line.startswith("rule=2") for line in out.trace)

    def test_p4_k3_reduced_and_still_no(self, p4):
        out = kernelize(p4, 3)
        assert isinstance(out, Reduced)
        assert upper_eds_exact(out.graph).gamma_prime < out.k

    def test_twelve_vertex_fixture_all_k(self, twelve_vertex_all_colors):
        g = twelve_vertex_all_colors
        gamma = upper_eds_exact(g).gamma_prime
        assert gamma == 5
        for k in range(1, 6):
            out = kernelize(g, k)
            want = gamma >= k
            if isinstance(out, DecidedYes):
                assert want
            else:
                got = upper_eds_exact(out.graph).gamma_prime >= out.k
                assert got == want

    def test_k_nonpositive_short_circuits(self, p4):
        out = kernelize(p4, 0)
        assert isinstance(out, DecidedYes) and out.rule == 0

    def test_trace_format(self, k13):
        out = kernelize(k13, 2)
        for line in out.trace:
            assert line.startswith("rule=")
            assert " action=" in line and " n=" in line and " k=" in line

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_answer_preservation_and_size_bound(self, g):
        gamma = upper_eds_exact(g, limit=40).gamma_prime
        for k in range(1, g.m + 1):
            out = kernelize(g, k)
            want = gamma >= k
            if isinstance(out, DecidedYes):
                assert want, (g.edges, k)
            else:
                reduced_gamma = upper_eds_exact(out.graph, limit=40).gamma_prime
                assert (reduced_gamma >= out.k) == want, (g.edges, k)
                assert out.graph.n <= 4 * out.k * out.k - 2
                assert all(out.graph.degree(v) > 0 for v in range(out.graph.n))
                # rules 3 and 6 keep k; only rule 2 lowers it, by one per line
                drops = sum(
                    1 for line in out.trace if line.startswith("rule=2")
                )
                assert out.k == k - drops


SPARSE_FAMILIES = [
    GenSpec("tree", 300, None, 4),
    GenSpec("path", 300),
    GenSpec("star", 300),
    GenSpec("gnp", 300, 0.005, 2),
    GenSpec("gnp", 300, 0.01, 3),
]


def _sparse_ks(g):
    return (1, 5, greedy_maximal_matching(g).size + 1, 1000)


class TestWorklistKernel:
    """kernelize must equal the reference driver, which rebuilds the graph
    and recolors from scratch after every rule application."""

    @given(graphs(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_small_graphs(self, g):
        for k in range(0, g.m + 2):
            assert _outcome(kernelize(g, k)) == _outcome(kernelize_reference(g, k)), (
                g.edges,
                k,
            )

    def test_matches_reference_on_every_graph_up_to_five_vertices(self):
        pairs = 0
        for n in range(6):
            for g in all_graphs_on(n):
                for k in range(0, g.m + 2):
                    assert _outcome(kernelize(g, k)) == _outcome(
                        kernelize_reference(g, k)
                    ), (n, g.edges, k)
                    pairs += 1
        assert pairs == 7525

    @pytest.mark.parametrize("spec", SPARSE_FAMILIES, ids=lambda spec: spec.instance_id)
    def test_matches_reference_on_sparse_families(self, spec):
        g = gen(spec)
        for k in _sparse_ks(g):
            assert _outcome(kernelize(g, k)) == _outcome(kernelize_reference(g, k)), k

    def test_builds_one_graph(self, monkeypatch):
        g = gen(GenSpec("tree", 3000, None, 11))
        k = greedy_maximal_matching(g).size + 1
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        out = kernelize(g, k)
        assert len(out.trace) > 100  # many rules fired, and one Graph was built
        assert len(built) <= 1

    def test_returns_input_graph_when_no_rule_fires(self, c4):
        out = kernelize(c4, 3)
        assert isinstance(out, Reduced) and out.trace == ()
        assert out.graph is c4


def twins_and_reds() -> Graph:
    """A green 300-cycle with a purple hub on every tenth vertex, each hub
    with one blue leaf and the first with five; red vertices that see only
    hubs; a hub whose other neighbors are all red, so deleting them isolates
    its blue edge; and a separate star, whose twins leave an isolated edge."""
    core = 300
    edges = [(i, (i + 1) % core) for i in range(core)]
    hubs = list(range(0, core, 10))
    nxt = core

    def add(*ends):
        nonlocal nxt
        edges.extend((nxt, end) for end in ends)
        nxt += 1
        return nxt - 1

    for hub in hubs:
        add(hub)
    for _ in range(4):
        add(hubs[0])
    for i in range(6):
        add(hubs[i], hubs[i + 1])
    lonely = add()
    add(lonely)
    add(lonely, hubs[7])
    add(lonely, hubs[8])
    center = add()
    for _ in range(4):
        add(center)
    return Graph(nxt, edges)


WORKLOAD_SIZE = {
    "tree-250": gen(GenSpec("tree", 250, None, 1)),
    "tree-500": gen(GenSpec("tree", 500, None, 2)),
    "gnp-500-deg2": gen(GenSpec("gnp", 500, 2 / 499, 3)),
    "gnp-400-deg3": gen(GenSpec("gnp", 400, 3 / 399, 4)),
    "twins-and-reds": twins_and_reds(),
}


def _python_numbers(value) -> bool:
    """True iff every number inside value is a Python int or bool: a numpy
    integer compares equal to one but cannot be written as JSON."""
    if isinstance(value, dict):
        return all(_python_numbers(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_python_numbers(v) for v in value)
    return isinstance(value, str) or type(value) in (int, bool)


class TestKernelAtWorkloadSize:
    """kernelize against the reference driver on graphs of the benchmark's
    kernelize-sparse size, at the k the benchmark asks: greedy matching + 1."""

    @pytest.mark.parametrize("g", WORKLOAD_SIZE.values(), ids=WORKLOAD_SIZE)
    def test_matches_reference(self, g):
        k = greedy_maximal_matching(g).size + 1
        out = kernelize(g, k)
        assert _outcome(out) == _outcome(kernelize_reference(g, k))
        rules = {line.split()[0] for line in out.trace}
        assert {"rule=2", "rule=3", "rule=6"} <= rules

    def test_every_exit_reports_python_numbers(self):
        # at every k of _sparse_ks these graphs leave through rules 0, 4, 5
        # and 7 (the cycle) as well as with a reduced instance
        exits = set()
        cycle = gen(GenSpec("cycle", 1000))
        for name, g in [*WORKLOAD_SIZE.items(), ("cycle-1000", cycle)]:
            for k in _sparse_ks(g):
                out = kernelize(g, k)
                assert _outcome(out) == _outcome(kernelize_reference(g, k)), (name, k)
                json.dumps(out.summary())
                assert _python_numbers(out.summary()), (name, k)
                if isinstance(out, Reduced):
                    assert _python_numbers((out.k, out.graph.n, out.graph.m)), (name, k)
                    exits.add("reduced")
                else:
                    exits.add(out.rule)
        assert exits == {0, 4, 5, 7, "reduced"}


class TestLazyAdjacency:
    """kernelize reads only the edge array: neither the graph it is given nor
    the one it returns builds ``Graph.adj`` or the tuples of ``Graph.edges``."""

    @pytest.mark.parametrize("spec", SPARSE_FAMILIES, ids=lambda spec: spec.instance_id)
    def test_parse_match_kernelize_build_no_adj(self, spec):
        kinds = set()
        for k in _sparse_ks(gen(spec)):
            g = parse_graph(emit_graph(gen(spec)))
            greedy_maximal_matching(g)
            out = kernelize(g, k)
            kinds.add(type(out))
            assert "adj" not in g.__dict__ and "edges" not in g.__dict__
            if isinstance(out, Reduced):
                assert "adj" not in out.graph.__dict__
                assert "edges" not in out.graph.__dict__
        assert kinds == {Reduced, DecidedYes}
        assert g.edges and "edges" in g.__dict__  # the tuples are built on first read

    def test_reduced_graph_adj_on_first_read(self):
        g = parse_graph(emit_graph(gen(GenSpec("tree", 300, None, 4))))
        out = kernelize(g, greedy_maximal_matching(g).size + 1)
        assert isinstance(out, Reduced) and out.graph.n < g.n
        assert out.graph.adj == Graph(out.graph.n, list(out.graph.edges)).adj
        assert "adj" in out.graph.__dict__ and "adj" not in g.__dict__


def _assert_rule_order(trace):
    """Rule-1 lines come first, and the rule-6 lines form one run with no
    rule-3 line after it: kernelize relies on both to color only once."""
    rules = [int(line.split()[0].removeprefix("rule=")) for line in trace]
    ones = [i for i, rule in enumerate(rules) if rule == 1]
    assert ones == list(range(len(ones))), trace
    sixes = [i for i, rule in enumerate(rules) if rule == 6]
    if sixes:
        assert sixes == list(range(sixes[0], sixes[-1] + 1)), trace
        assert 3 not in rules[sixes[-1] :], trace


class TestReferenceRuleOrder:
    """The order of rules in the traces of kernelize_reference, which
    recolors after every application: what the single coloring in kernelize
    assumes."""

    @given(graphs(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_small_graphs(self, g):
        for k in range(0, g.m + 2):
            _assert_rule_order(kernelize_reference(g, k).trace)

    @pytest.mark.parametrize("spec", SPARSE_FAMILIES, ids=lambda spec: spec.instance_id)
    def test_sparse_families(self, spec):
        g = gen(spec)
        for k in _sparse_ks(g):
            _assert_rule_order(kernelize_reference(g, k).trace)
