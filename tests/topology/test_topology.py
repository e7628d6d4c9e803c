"""Tests for cluster spec, network topology, and failure domains."""

import pytest

from repro.topology import (
    ClusterSpec,
    Node,
    NodeKind,
    NetworkTopology,
    Rack,
    derive_failure_domains,
    paper_testbed,
    partner_domains,
)
from repro.units import GiB


def test_paper_testbed_shape():
    cluster = paper_testbed()
    assert len(cluster.storage_nodes()) == 8
    assert len(cluster.compute_nodes()) == 16
    assert cluster.total_cores(NodeKind.COMPUTE) == 448  # 16 x 28
    assert cluster.total_ssds() == 8


def test_compute_node_with_ssd_rejected():
    with pytest.raises(ValueError):
        Node("bad", NodeKind.COMPUTE, "r", "p", 28, GiB(128), ssd_count=1)


def test_storage_node_without_ssd_rejected():
    with pytest.raises(ValueError):
        Node("bad", NodeKind.STORAGE, "r", "p", 28, GiB(128), ssd_count=0)


def test_duplicate_node_names_rejected():
    node = Node("dup", NodeKind.COMPUTE, "r0", "p0", 4, GiB(1))
    with pytest.raises(ValueError):
        ClusterSpec([Rack("r0", [node, node])])


def test_node_rack_mismatch_rejected():
    node = Node("n0", NodeKind.COMPUTE, "other-rack", "p0", 4, GiB(1))
    with pytest.raises(ValueError):
        ClusterSpec([Rack("r0", [node])])


def test_node_lookup():
    cluster = paper_testbed()
    assert cluster.node("stor00").kind is NodeKind.STORAGE
    with pytest.raises(KeyError):
        cluster.node("nope")


def test_hop_counts():
    topo = NetworkTopology(paper_testbed())
    # Same node.
    assert topo.hop_count("comp00", "comp00") == 0
    # Same rack: through one ToR switch.
    assert topo.hop_count("comp00", "comp01") == 1
    # Cross rack: ToR -> core -> ToR.
    assert topo.hop_count("comp00", "stor00") == 3
    # Symmetric.
    assert topo.hop_count("stor00", "comp00") == 3


def test_unknown_host_raises_key_error_naming_it():
    topo = NetworkTopology(paper_testbed())
    with pytest.raises(KeyError, match="nope"):
        topo.hop_count("comp00", "nope")
    with pytest.raises(KeyError, match="switch-core"):
        topo.hop_count("switch-core", "switch-core")


def test_switch_inventory():
    topo = NetworkTopology(paper_testbed())
    switches = topo.switches()
    assert "switch-core" in switches
    assert len(switches) == 3  # core + 2 ToR


def test_failure_domains_group_by_rack_and_pdu():
    domains = derive_failure_domains(paper_testbed())
    assert len(domains) == 2
    by_id = {d.domain_id: d for d in domains}
    assert len(by_id["rack-storage/pdu-storage"].nodes) == 8
    assert len(by_id["rack-compute/pdu-compute"].nodes) == 16


def test_domain_membership():
    domains = derive_failure_domains(paper_testbed())
    storage_domain = next(d for d in domains if "storage" in d.domain_id)
    assert "stor03" in storage_domain
    assert "comp00" not in storage_domain


def test_partner_domains_exclude_self_and_sort_by_hops():
    cluster = paper_testbed()
    topo = NetworkTopology(cluster)
    domains = derive_failure_domains(cluster)
    partners = partner_domains(topo, domains)
    for domain_id, plist in partners.items():
        assert all(p.domain_id != domain_id for p in plist)
        assert len(plist) == len(domains) - 1


def test_partner_domains_closest_first_with_three_racks():
    # Three racks: r0 and r1 hang off one aggregation switch... our model
    # is single-core, so all cross-rack distances tie at 3 hops and the
    # ordering must fall back to domain-id determinism.
    racks = []
    for r in range(3):
        racks.append(
            Rack(
                f"r{r}",
                [
                    Node(f"n{r}{i}", NodeKind.COMPUTE, f"r{r}", f"p{r}", 4, GiB(1))
                    for i in range(2)
                ],
            )
        )
    cluster = ClusterSpec(racks)
    topo = NetworkTopology(cluster)
    domains = derive_failure_domains(cluster)
    partners = partner_domains(topo, domains)
    assert [d.domain_id for d in partners["r0/p0"]] == ["r1/p1", "r2/p2"]


def _many_domain_cluster():
    """3 racks x 4 PDUs: 12 domains, enough to exercise the cache."""
    racks = []
    for r in range(3):
        nodes = []
        for i in range(8):
            kind = NodeKind.STORAGE if i % 2 else NodeKind.COMPUTE
            nodes.append(Node(
                f"n{r}{i}", kind, f"r{r}", f"p{r}{i % 4}", 4, GiB(1),
                ssd_count=1 if kind is NodeKind.STORAGE else 0,
            ))
        racks.append(Rack(f"r{r}", nodes))
    return ClusterSpec(racks)


@pytest.mark.parametrize("make_cluster", [paper_testbed, _many_domain_cluster])
def test_hop_counts_follow_rack_membership(make_cluster):
    """The counts a BFS over the two-tier switch graph gives: 0 for the
    same host, 1 within a rack, 3 across racks, for every ordered pair;
    the switches are the core, then each rack's ToR in rack order."""
    cluster = make_cluster()
    topo = NetworkTopology(cluster)
    for a in cluster.nodes:
        for b in cluster.nodes:
            want = 0 if a.name == b.name else 1 if a.rack == b.rack else 3
            assert topo.hop_count(a.name, b.name) == want
    assert topo.switches() == ["switch-core"] + [
        f"switch-{rack.name}" for rack in cluster.racks
    ]


def _rack(name, *hosts):
    return Rack(name, [Node(h, NodeKind.COMPUTE, name, "p0", 4, GiB(1)) for h in hosts])


def test_rack_named_core_rejected():
    # Its ToR would share the core switch's name.
    with pytest.raises(ValueError, match="core"):
        ClusterSpec([_rack("core", "a0", "a1"), _rack("r1", "b0", "b1")])


def test_duplicate_rack_names_rejected():
    with pytest.raises(ValueError, match="r0"):
        ClusterSpec([_rack("r0", "a0", "a1"), _rack("r0", "b0", "b1")])


@pytest.mark.parametrize("host", ["switch-r1", "switch-r0", "switch-core"])
def test_host_named_like_a_switch_rejected(host):
    with pytest.raises(ValueError, match=host):
        ClusterSpec([_rack("r0", host, "a1"), _rack("r1", "b0", "b1")])


def test_domain_distance_cache_preserves_partner_ordering():
    """The pairwise hop cache is an optimisation only: cached and
    uncached distances agree, and partner lists come out identical."""
    from repro.topology.failure_domains import _domain_distance

    cluster = _many_domain_cluster()
    topo = NetworkTopology(cluster)
    domains = derive_failure_domains(cluster)

    cache = {}
    for a in domains:
        for b in domains:
            cached = _domain_distance(topo, a, b, cache)
            uncached = _domain_distance(topo, a, b, cache=None)
            brute = min(
                topo.hop_count(na.name, nb.name)
                for na in a.nodes for nb in b.nodes
            )
            assert cached == uncached == brute
    # Symmetric keys: n*(n+1)/2 unordered pairs, not n^2.
    n = len(domains)
    assert len(cache) == n * (n + 1) // 2

    partners = partner_domains(topo, domains)
    for domain in domains:
        expected = sorted(
            (d for d in domains if d.domain_id != domain.domain_id),
            key=lambda d: (_domain_distance(topo, domain, d), d.domain_id),
        )
        got = [d.domain_id for d in partners[domain.domain_id]]
        assert got == [d.domain_id for d in expected]
