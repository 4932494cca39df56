"""Multi-node fabric tests: mesh layout, link tiers, hierarchical
placement properties, machine-shape serialisation, and multinode DES
engine identity.

The slow 64-GPU engine-identity rows carry the ``multinode`` marker (their
own CI job); everything else runs in the default suite.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TopologyError
from repro.exec_model.costmodel import Design
from repro.machine.mesh import (
    DeviceMesh,
    cluster_mesh,
    mesh_machine,
    mesh_topology,
)
from repro.machine.multinode import INFINIBAND, cluster, multinode_topology
from repro.machine.node import dgx1, dgx2
from repro.runtime.config import RunConfig
from repro.solvers.des_solver import des_execute
from repro.sparse.validate import random_rhs_for_solution
from repro.tasks.hierarchical import hierarchical_distribution
from repro.tasks.schedule import build_distribution, round_robin_distribution
from repro.workloads.generators import dag_profile_matrix


# ======================================================================
# DeviceMesh
# ======================================================================
class TestDeviceMesh:
    def test_rank_coords_roundtrip(self):
        mesh = DeviceMesh(("node", "gpu"), (3, 4))
        for r in range(mesh.size):
            assert mesh.rank(*mesh.coords(r)) == r
        assert mesh.rank(2, 3) == 11  # node-major (C order)

    def test_axis_and_coord(self):
        mesh = DeviceMesh(("node", "gpu"), (2, 4))
        assert mesh.axis("gpu") == 1
        assert mesh.coord(6, "node") == 1
        assert mesh.coord(6, "gpu") == 2
        with pytest.raises(TopologyError):
            mesh.axis("rail")

    def test_subgroup(self):
        mesh = DeviceMesh(("node", "gpu"), (2, 4))
        assert mesh.subgroup(0, "gpu") == (0, 1, 2, 3)
        assert mesh.subgroup(5, "gpu") == (4, 5, 6, 7)
        assert mesh.subgroup(5, "node") == (1, 5)

    def test_groups_disjoint_cover(self):
        mesh = DeviceMesh(("node", "gpu"), (2, 4))
        groups = mesh.groups("gpu")
        assert groups == ((0, 1, 2, 3), (4, 5, 6, 7))
        flat = [r for g in groups for r in g]
        assert sorted(flat) == list(range(mesh.size))

    def test_tier(self):
        mesh = DeviceMesh(("node", "gpu"), (2, 4))
        assert mesh.tier(3, 3) == 0
        assert mesh.tier(0, 3) == 1  # same node, different gpu
        assert mesh.tier(0, 4) == 2  # different node
        tm = mesh.tier_matrix()
        for a in range(mesh.size):
            for b in range(mesh.size):
                assert tm[a, b] == mesh.tier(a, b)

    def test_single_axis_mesh(self):
        mesh = DeviceMesh(("gpu",), (4,))
        assert mesh.groups("gpu") == ((0, 1, 2, 3),)
        assert mesh.tier(0, 3) == 1
        assert mesh.tier(2, 2) == 0

    def test_validation(self):
        with pytest.raises(TopologyError):
            DeviceMesh((), ())
        with pytest.raises(TopologyError):
            DeviceMesh(("node", "node"), (2, 2))
        with pytest.raises(TopologyError):
            DeviceMesh(("node", "gpu"), (2, 0))
        with pytest.raises(TopologyError):
            DeviceMesh(("node",), (2, 2))
        mesh = DeviceMesh(("node", "gpu"), (2, 2))
        with pytest.raises(TopologyError):
            mesh.rank(2, 0)
        with pytest.raises(TopologyError):
            mesh.coords(4)


# ======================================================================
# Mesh-backed topology
# ======================================================================
class TestMeshTopology:
    def test_matches_multinode_topology(self):
        a = multinode_topology(3, 4)
        b = mesh_topology(cluster_mesh(3, 4))
        assert a.name == b.name == "cluster-3x4"
        np.testing.assert_array_equal(a.link_count, b.link_count)
        assert a.node_shape == b.node_shape == (3, 4)
        assert b.fallback is not None
        assert b.shmem_over_fallback

    def test_single_axis_has_no_fallback(self):
        t = mesh_topology(DeviceMesh(("gpu",), (4,)))
        assert t.fallback is None
        assert t.node_shape == (1, 4)
        assert t.connected(0, 3)

    def test_rejects_deep_meshes(self):
        mesh = DeviceMesh(("rack", "node", "gpu"), (2, 2, 2))
        with pytest.raises(TopologyError):
            mesh_topology(mesh)

    def test_tier_of(self):
        t = multinode_topology(2, 4)
        assert t.tier_of(0, 0) == 0
        assert t.tier_of(0, 3) == 1
        assert t.tier_of(0, 4) == 2
        assert t.tier_link(2) is not None
        assert t.tier_link(2).latency == INFINIBAND.latency
        tm = t.tier_matrix()
        assert tm.shape == (8, 8)
        assert tm[0, 3] == 1 and tm[0, 4] == 2 and tm[2, 2] == 0

    def test_tier_matrix_matches_latency_tiers(self):
        t = multinode_topology(2, 4)
        tm = t.tier_matrix()
        for a in range(8):
            for b in range(8):
                if a == b:
                    continue
                slow = t.latency(a, b) == INFINIBAND.latency
                assert (tm[a, b] == 2) == slow

    def test_mesh_machine(self):
        m = mesh_machine(cluster_mesh(2, 2))
        assert m.n_gpus == 4
        assert not m.require_p2p
        assert m.topology.node_shape == (2, 2)


# ======================================================================
# Fabric reachability (protocol rule)
# ======================================================================
class TestFabricReach:
    def test_fallback_legal(self):
        from repro.engine.protocol import fallback_legal

        topo = multinode_topology(2, 2)
        assert fallback_legal(Design.SHMEM_READONLY, topo)
        assert fallback_legal(Design.UNIFIED, topo)
        strict = dataclasses.replace(topo, shmem_over_fallback=False)
        assert not fallback_legal(Design.SHMEM_READONLY, strict)
        assert fallback_legal(Design.UNIFIED, strict)
        island = mesh_topology(DeviceMesh(("gpu",), (4,)))
        assert not fallback_legal(Design.SHMEM_READONLY, island)

    def test_validate_fabric_reach_names_pair(self):
        from repro.engine.protocol import validate_fabric_reach

        machine = cluster(2, 2)
        validate_fabric_reach(machine, Design.SHMEM_READONLY)
        strict = dataclasses.replace(
            machine,
            topology=dataclasses.replace(
                machine.topology, shmem_over_fallback=False
            ),
        )
        with pytest.raises(TopologyError, match=r"0.*2|rank"):
            validate_fabric_reach(strict, Design.SHMEM_READONLY)
        # Page-migration designs may always cross the fallback tier.
        validate_fabric_reach(strict, Design.UNIFIED)

    def test_des_execute_rejects_unreachable_fabric(self):
        low = dag_profile_matrix(120, 8, 3.0, seed=3)
        b, _ = random_rhs_for_solution(low, seed=3)
        machine = cluster(2, 2)
        strict = dataclasses.replace(
            machine,
            topology=dataclasses.replace(
                machine.topology, shmem_over_fallback=False
            ),
        )
        dist = round_robin_distribution(low.shape[0], 4, 2)
        with pytest.raises(TopologyError):
            des_execute(low, b, dist, strict, Design.SHMEM_READONLY)

    def test_tier_tables_are_metadata_only(self):
        """Tier classification must not change edge pricing."""
        from repro.engine.protocol import (
            edge_cost_tables,
            edge_tier_table,
            rank_tier_matrix,
            tiered_edge_cost_tables,
        )
        from repro.exec_model.costmodel import build_comm_costs

        machine = cluster(2, 2)
        costs = build_comm_costs(machine, Design.SHMEM_READONLY)
        src = np.array([0, 0, 1, 2, 3], dtype=np.int64)
        dst = np.array([1, 2, 3, 0, 3], dtype=np.int64)
        local = src == dst
        inc, delay = edge_cost_tables(costs, src, dst, local)
        t_inc, t_delay, tier = tiered_edge_cost_tables(
            costs, machine, src, dst, local
        )
        np.testing.assert_array_equal(inc, t_inc)
        np.testing.assert_array_equal(delay, t_delay)
        np.testing.assert_array_equal(
            tier, edge_tier_table(machine, src, dst)
        )
        rt = rank_tier_matrix(machine)
        assert rt[0, 1] == 1 and rt[0, 2] == 2 and rt[3, 3] == 0

    def test_causality_flags_ib_without_fallback_consent(self):
        """A cluster trace replayed against a strict (no
        shmem-over-fallback) fabric must produce link-topology
        violations; against the real fabric it is clean."""
        from repro.verify.causality import check_des_execution

        low = dag_profile_matrix(260, 10, 3.0, locality=0.3, seed=7)
        n = low.shape[0]
        b, _ = random_rhs_for_solution(low, seed=1)
        machine = cluster(2, 2)
        dist = build_distribution(
            "hierarchical", n, 4, machine=machine, tasks_per_gpu=4
        )
        ex = des_execute(low, b, dist, machine, Design.SHMEM_READONLY)
        rep = check_des_execution(
            ex, low, dist, machine, Design.SHMEM_READONLY
        )
        assert rep.ok, rep.summary()
        strict = dataclasses.replace(
            machine,
            topology=dataclasses.replace(
                machine.topology, shmem_over_fallback=False
            ),
        )
        rep = check_des_execution(
            ex, low, dist, strict, Design.SHMEM_READONLY
        )
        assert not rep.ok
        assert any(v.rule == "link-topology" for v in rep.violations)


# ======================================================================
# Hierarchical placement properties
# ======================================================================
@st.composite
def placements(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=6))
    gpus_per_node = draw(st.integers(min_value=1, max_value=8))
    tasks_per_gpu = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=600))
    node_run = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=64))
    )
    return n, n_nodes, gpus_per_node, tasks_per_gpu, node_run


class TestHierarchicalProperties:
    @settings(max_examples=60, deadline=None)
    @given(placements())
    def test_placement_formula_and_coverage(self, params):
        n, n_nodes, gpus_per_node, tasks_per_gpu, node_run = params
        d = hierarchical_distribution(
            n, n_nodes, gpus_per_node, tasks_per_gpu, node_run=node_run
        )
        run = 2 * gpus_per_node if node_run is None else node_run
        n_gpus = n_nodes * gpus_per_node
        t = np.arange(d.n_tasks)
        expect = (t // run % n_nodes) * gpus_per_node + (
            t % run
        ) % gpus_per_node
        np.testing.assert_array_equal(d.task_gpu, expect)
        assert len(d.gpu_of) == n
        assert d.n_gpus == n_gpus
        np.testing.assert_array_equal(
            d.gpu_of, np.repeat(d.task_gpu, d.partition.sizes())
        )

    @settings(max_examples=60, deadline=None)
    @given(placements())
    def test_ascending_dispatch_order_per_gpu(self, params):
        n, n_nodes, gpus_per_node, tasks_per_gpu, node_run = params
        d = hierarchical_distribution(
            n, n_nodes, gpus_per_node, tasks_per_gpu, node_run=node_run
        )
        for g in range(d.n_gpus):
            tasks = np.flatnonzero(d.task_gpu == g)
            slots = d.task_launch_slot[tasks]
            # Launch slots follow ascending task (hence component)
            # order: the deadlock-freedom invariant.
            np.testing.assert_array_equal(slots, np.arange(len(tasks)))
            comps = d.components_on_gpu(g)
            assert np.all(np.diff(comps) > 0)

    @settings(max_examples=60, deadline=None)
    @given(placements())
    def test_min_node_run_is_flat_round_robin(self, params):
        n, n_nodes, gpus_per_node, tasks_per_gpu, _ = params
        d = hierarchical_distribution(
            n,
            n_nodes,
            gpus_per_node,
            tasks_per_gpu,
            node_run=gpus_per_node,
        )
        n_gpus = n_nodes * gpus_per_node
        np.testing.assert_array_equal(
            d.task_gpu, np.arange(d.n_tasks) % n_gpus
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=4),
        gpus_per_node=st.integers(min_value=1, max_value=4),
        tasks_per_gpu=st.integers(min_value=1, max_value=4),
        scale=st.integers(min_value=1, max_value=5),
    )
    def test_flat_equivalence_matches_taskpool(
        self, n_nodes, gpus_per_node, tasks_per_gpu, scale
    ):
        """With equal-size tasks the taskpool deal is positional
        round-robin, so ``node_run = gpus_per_node`` under node-major
        numbering reproduces it exactly."""
        n_gpus = n_nodes * gpus_per_node
        n_tasks = tasks_per_gpu * n_gpus
        n = n_tasks * scale  # divisible: all tasks equal-sized
        hier = hierarchical_distribution(
            n, n_nodes, gpus_per_node, tasks_per_gpu, node_run=gpus_per_node
        )
        flat = round_robin_distribution(n, n_gpus, tasks_per_gpu)
        np.testing.assert_array_equal(hier.task_gpu, flat.task_gpu)
        np.testing.assert_array_equal(hier.gpu_of, flat.gpu_of)

    @settings(max_examples=60, deadline=None)
    @given(placements())
    def test_balance_bounds(self, params):
        n, n_nodes, gpus_per_node, tasks_per_gpu, node_run = params
        d = hierarchical_distribution(
            n, n_nodes, gpus_per_node, tasks_per_gpu, node_run=node_run
        )
        run = 2 * gpus_per_node if node_run is None else node_run
        counts = np.bincount(d.task_gpu, minlength=d.n_gpus)
        # Node-level balance: contiguous runs dealt round-robin over
        # nodes can skew node totals by at most one full run.
        node_counts = counts.reshape(n_nodes, gpus_per_node).sum(axis=1)
        assert node_counts.max() - node_counts.min() <= run
        # Within a node, lanes are dealt round-robin inside each run,
        # so per-GPU counts differ by at most one per run the node saw.
        runs_per_node = -(-d.n_tasks // run)  # ceil over all nodes
        for node in range(n_nodes):
            lane = counts[node * gpus_per_node : (node + 1) * gpus_per_node]
            assert lane.max() - lane.min() <= runs_per_node

    def test_perfect_balance_in_divisible_case(self):
        d = hierarchical_distribution(
            1024, n_nodes=4, gpus_per_node=4, tasks_per_gpu=4, node_run=8
        )
        counts = np.bincount(d.task_gpu, minlength=16)
        assert counts.max() == counts.min() == 4


# ======================================================================
# Machine-shape serialisation
# ======================================================================
class TestRunConfigMachineShape:
    def test_cluster_round_trip(self):
        cfg = RunConfig(
            topology="cluster",
            n_nodes=4,
            gpus_per_node=8,
            distribution="hierarchical",
            node_run=16,
        )
        assert cfg.n_gpus == 32
        assert cfg.machine_shape() == ("cluster-4x8", 4, 8)
        back = RunConfig.from_mapping(cfg.to_mapping())
        assert back.machine_shape() == cfg.machine_shape()
        assert back.fingerprint() == cfg.fingerprint()
        assert back.node_run == 16

    def test_live_machine_round_trip(self):
        cfg = RunConfig(
            machine=cluster(2, 2), distribution="hierarchical"
        )
        mapping = cfg.to_mapping()
        assert mapping["machine_shape"] == ["cluster-2x2", 2, 2]
        back = RunConfig.from_mapping(mapping)
        assert back.n_nodes == 2 and back.gpus_per_node == 2
        assert back.fingerprint() == cfg.fingerprint()

    def test_shape_distinguishes_fingerprints(self):
        base = dict(distribution="hierarchical")
        a = RunConfig(topology="cluster", n_nodes=2, gpus_per_node=4, **base)
        b = RunConfig(topology="cluster", n_nodes=4, gpus_per_node=2, **base)
        c = RunConfig(n_gpus=8, topology="dgx2")
        d = RunConfig(n_gpus=8)
        prints = {x.fingerprint() for x in (a, b, c, d)}
        assert len(prints) == 4  # same GPU count, four distinct fabrics

    def test_node_run_in_fingerprint(self):
        a = RunConfig(
            topology="cluster",
            n_nodes=2,
            gpus_per_node=4,
            distribution="hierarchical",
            node_run=8,
        )
        b = dataclasses.replace(a, node_run=16)
        assert a.fingerprint() != b.fingerprint()

    def test_dgx2_shape_round_trip(self):
        cfg = RunConfig(n_gpus=16, topology="dgx2")
        assert cfg.machine_shape() == ("DGX-2", 1, 16)
        back = RunConfig.from_mapping(cfg.to_mapping())
        assert back.fingerprint() == cfg.fingerprint()

    def test_invalid_node_axis(self):
        with pytest.raises(ConfigurationError):
            RunConfig(n_nodes=2)  # missing gpus_per_node
        with pytest.raises(ConfigurationError):
            RunConfig(topology="dgx1", n_nodes=2, gpus_per_node=4)
        with pytest.raises(ConfigurationError):
            RunConfig(topology="cluster")  # needs the node axis
        with pytest.raises(ConfigurationError):
            RunConfig(n_gpus=16, n_nodes=2, gpus_per_node=4)
        with pytest.raises(ConfigurationError):
            RunConfig(node_run=8)  # needs hierarchical distribution

    def test_resolves_cluster_machine(self):
        cfg = RunConfig(
            topology="cluster",
            n_nodes=2,
            gpus_per_node=2,
            distribution="hierarchical",
        )
        m = cfg.resolve_machine()
        assert m.n_gpus == 4
        assert m.topology.node_shape == (2, 2)
        dist = cfg.build_distribution(200, 4)
        assert dist.n_gpus == 4


# ======================================================================
# Multinode DES engine identity (own CI job)
# ======================================================================
@pytest.mark.multinode
class TestMultinodeEngines:
    def test_tri_engine_identity_at_64_gpus(self):
        """Reference and array engines bit-identical on an 8x8-node
        cluster."""
        low = dag_profile_matrix(
            1_500, 30, 5.0, "geometric", 0.9, 0.3, 0.0, seed=11
        )
        n = low.shape[0]
        machine = cluster(8, 8)
        b, _ = random_rhs_for_solution(low, seed=11)
        dist = build_distribution(
            "hierarchical", n, 64, machine=machine, node_run=16
        )
        ref, arr = (
            des_execute(
                low, b, dist, machine, Design.SHMEM_READONLY, engine=eng
            )
            for eng in ("reference", "array")
        )
        assert ref.x.tobytes() == arr.x.tobytes()
        assert ref.total_time == arr.total_time
        assert ref.events == arr.events
        assert len(ref.trace.records) == len(arr.trace.records)
        assert all(
            a == b for a, b in zip(ref.trace.records, arr.trace.records)
        )

    def test_cluster_run_is_causal_at_64_gpus(self):
        from repro.verify.causality import check_des_execution

        low = dag_profile_matrix(
            1_000, 20, 4.0, "uniform", 0.8, 0.3, 0.0, seed=5
        )
        n = low.shape[0]
        machine = cluster(8, 8)
        b, _ = random_rhs_for_solution(low, seed=5)
        dist = build_distribution("hierarchical", n, 64, machine=machine)
        ex = des_execute(low, b, dist, machine, Design.SHMEM_READONLY)
        rep = check_des_execution(
            ex, low, dist, machine, Design.SHMEM_READONLY
        )
        assert rep.ok, rep.summary()

    def test_hierarchical_beats_flat_under_naive_design(self):
        """The latency-exposed design is where flat round-robin breaks
        across the IB tier (see EXPERIMENTS.md)."""
        low = dag_profile_matrix(
            2_000, 30, 6.0, "geometric", 0.9, 0.3, 0.0, seed=0
        )
        n = low.shape[0]
        machine = cluster(8, 8)
        b, _ = random_rhs_for_solution(low, seed=0)
        flat = round_robin_distribution(n, 64, 4)
        hier = build_distribution(
            "hierarchical", n, 64, machine=machine,
            tasks_per_gpu=4, node_run=32,
        )
        t = {}
        for name, dist in (("flat", flat), ("hier", hier)):
            t[name] = des_execute(
                low, b, dist, machine, Design.SHMEM_NAIVE
            ).total_time
        assert t["hier"] < t["flat"]
