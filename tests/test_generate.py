import hashlib

import pytest

from ueds.errors import GenSpecError
from ueds.generate import GenSpec, SplitMix64, _draws, gen
from ueds.graph import emit_graph

from conftest import pool_specs


class TestSplitMix64:
    def test_reference_stream(self):
        # first five outputs of the reference implementation for seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_seed_zero_first_output(self):
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, 2**64 + 1])
    def test_array_stream_is_the_generator_stream(self, seed):
        rng = SplitMix64(seed)
        stream = [rng.next_u64() for _ in range(300)]
        assert _draws(seed, 0, 300).tolist() == stream
        assert _draws(seed, 123, 45).tolist() == stream[123:168]


def _sha(spec: GenSpec) -> str:
    return hashlib.sha256(emit_graph(gen(spec)).encode()).hexdigest()


class TestPinnedText:
    """sha256 of the emitted text, recorded with SplitMix64.next_u64 drawing
    one value at a time, so a spec means the same graph in every version."""

    @pytest.mark.parametrize(
        "spec, sha",
        [
            (GenSpec("gnp", 30, 0.0, 5), "92fb6a4688373d7c94ce8163ec38787bb1b692429073191944df548149d1c607"),
            (GenSpec("gnp", 30, 0.5, 5), "493fcb5759762138ad5cc07b60f5995a28c9a1a78caba5ae188c38dcea188c3d"),
            (GenSpec("gnp", 30, 1.0, 5), "f2bf5155ec99230477fcad9db49eb939725200a8ba85f0b2b2783a5db2a6e8c7"),
            (GenSpec("tree", 1), "0176fcd625059b20798cfd1050bf9f8d53ec5bf696ab68924dfee5792e485f8e"),
            (GenSpec("tree", 2), "ca4556a847b98616ae74a20e89fcb97c09237262a54773e4688924b772eb9019"),
            (GenSpec("tree", 1000, None, 3), "accc6b87a3047e54a47fe68a3c49b65f542878b883750b6b416798ac81415516"),
            (GenSpec("gnp", 1000, 2 / 999, 1), "a6eb259ce03f146a4791e77b59d875f731b8e655a141c18768e1b347b9e0bc63"),
        ],
        ids=lambda x: x.instance_id if isinstance(x, GenSpec) else "",
    )
    def test_spec_text(self, spec, sha):
        assert _sha(spec) == sha

    @pytest.mark.parametrize("workload", ["gamma-auto", "solve-decide", "kernelize-sparse"])
    def test_benchmark_pools(self, workload):
        """Every graph of the benchmark's pools, regenerated, against the
        hash its expected-answers file records."""
        for _, spec, sha in pool_specs(workload):
            assert _sha(spec)[:16] == sha, spec


class TestFamilies:
    def test_path(self):
        assert gen(GenSpec("path", 4)).edges == ((0, 1), (1, 2), (2, 3))
        assert gen(GenSpec("path", 1)).m == 0

    def test_cycle(self):
        g = gen(GenSpec("cycle", 4))
        assert g.m == 4 and all(g.degree(v) == 2 for v in range(4))
        with pytest.raises(GenSpecError):
            gen(GenSpec("cycle", 2))

    def test_star(self):
        g = gen(GenSpec("star", 4))
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_tree_is_a_tree(self):
        for seed in (0, 1, 7, 99):
            g = gen(GenSpec("tree", 9, seed=seed))
            assert g.m == 8
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u, _ in g.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert len(seen) == 9

    def test_tree_tiny(self):
        assert gen(GenSpec("tree", 1)).m == 0
        assert gen(GenSpec("tree", 2)).edges == ((0, 1),)

    def test_gnp_determinism(self):
        spec = GenSpec("gnp", 8, 0.3, 42)
        assert emit_graph(gen(spec)) == emit_graph(gen(spec))

    def test_gnp_seed_changes_graph(self):
        a = gen(GenSpec("gnp", 10, 0.5, 1))
        b = gen(GenSpec("gnp", 10, 0.5, 2))
        assert emit_graph(a) != emit_graph(b)

    def test_gnp_extremes(self):
        assert gen(GenSpec("gnp", 5, 0.0, 3)).m == 0
        assert gen(GenSpec("gnp", 5, 1.0, 3)).m == 10

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("gnp", 5, None, 1),
            GenSpec("gnp", 5, 1.5, 1),
            GenSpec("blob", 5, None, 1),
            GenSpec("path", 0),
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(GenSpecError):
            gen(spec)

    def test_instance_ids(self):
        assert GenSpec("gnp", 8, 0.3, 42).instance_id == "gnp-n8-p0.3-s42"
        assert GenSpec("path", 4).instance_id == "path-n4"
        assert GenSpec("tree", 5, seed=9).instance_id == "tree-n5-s9"
