"""Tests for the Figure 3 roadmap and Table 9 profiles — and their
consistency with the actual implementations."""

import pytest

from repro import ALGORITHMS, create, info
from repro.taxonomy import (
    COMPONENT_PROFILES,
    ROADMAP_EDGES,
    algorithms_where,
    derives_from,
    descendants_of,
)


class TestRoadmap:
    def test_every_edge_endpoint_known(self):
        known = set(ALGORITHMS) | {"DG", "RNG", "KNNG", "MST"}
        for parent, child in ROADMAP_EDGES:
            assert parent in known, parent
            assert child in known, child

    def test_hnsw_derives_from_nsw_and_dg(self):
        assert derives_from("hnsw", "nsw")
        assert derives_from("hnsw", "DG")
        assert derives_from("hnsw", "RNG")

    def test_nssg_lineage(self):
        assert derives_from("nssg", "nsg")
        assert derives_from("nssg", "kgraph")
        assert derives_from("nssg", "KNNG")

    def test_hcnng_only_from_mst(self):
        assert derives_from("hcnng", "MST")
        assert not derives_from("hcnng", "KNNG")

    def test_descendants(self):
        knng_family = descendants_of("KNNG")
        assert {"kgraph", "efanna", "nsg", "nssg"} <= knng_family
        assert "hcnng" not in knng_family

    def test_no_self_edges(self):
        for parent, child in ROADMAP_EDGES:
            assert parent != child


@pytest.mark.slow
class TestComponentProfiles:
    def test_all_sixteen_algorithms_profiled(self):
        assert len(COMPONENT_PROFILES) == 16

    def test_profiles_match_registry_construction(self):
        for name, profile in COMPONENT_PROFILES.items():
            assert profile.construction == info(name).construction, name

    def test_query_by_selection(self):
        distribution_aware = algorithms_where(
            selection="distance & distribution"
        )
        assert "hnsw" in distribution_aware
        assert "kgraph" not in distribution_aware

    def test_query_by_routing(self):
        assert algorithms_where(routing="GS") == ["hcnng"]
        assert set(algorithms_where(routing="RS")) == {"ngt-panng", "ngt-onng"}

    def test_connectivity_column_matches_behaviour(self, easy_dataset):
        """Table 9's connectivity column must agree with measured CC=1
        for the refinement algorithms that claim the guarantee."""
        for name in ("nsg", "nssg", "nsw"):
            assert COMPONENT_PROFILES[name].connectivity
            index = create(name, seed=0)
            index.build(easy_dataset.base)
            assert index.graph.num_connected_components() == 1, name

    def test_unknown_criteria_rejected(self):
        with pytest.raises(KeyError):
            algorithms_where(flavor="spicy")

    def test_seed_acquisition_consistency(self):
        """Profiles' C6 column matches the implemented seed providers."""
        from repro.components.seeding import (
            CentroidSeeds,
            KDTreeDescendSeeds,
            KDTreeSeeds,
            KMeansTreeSeeds,
            LSHSeeds,
            RandomSeeds,
            VPTreeSeeds,
        )

        expected_provider = {
            "random": RandomSeeds,
            "centroid": CentroidSeeds,
            "kd-tree": (KDTreeSeeds, KDTreeDescendSeeds),
            "k-means tree": KMeansTreeSeeds,
            "vp-tree": VPTreeSeeds,
            "hashing": LSHSeeds,
        }
        for name, profile in COMPONENT_PROFILES.items():
            if profile.seed == "top layer":
                continue  # HNSW manages its entry internally
            algorithm = create(name, seed=0)
            assert isinstance(
                algorithm.seed_provider, expected_provider[profile.seed]
            ), name
