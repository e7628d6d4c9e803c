"""Failure-domain derivation and partner-domain construction (§III-F).

    "First, we identify the failure domains for each node by using the
    network topology. Nodes which share hardware are placed in the same
    domain. [...] Next, we create partner failure domains, such that
    nodes in both partners are in separate failure domains. For each
    failure domain, we create a list of partner domains sorted by the
    number of switch hops between them."

A node's domain key is its ``(rack, pdu)`` pair — the two kinds of shared
hardware the paper names. Partner lists exclude the domain itself and
sort by minimum inter-domain hop count (ties broken by domain id so the
greedy mapping stays deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.topology.cluster import ClusterSpec, Node
from repro.topology.network import NetworkTopology

__all__ = ["FailureDomain", "derive_failure_domains", "partner_domains",
           "partition_domains"]


@dataclass
class FailureDomain:
    """A set of nodes that share rack/PDU hardware and fail together."""

    domain_id: str
    nodes: List[Node] = field(default_factory=list)

    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def __contains__(self, node_name: str) -> bool:
        return any(n.name == node_name for n in self.nodes)


def derive_failure_domains(cluster: ClusterSpec) -> List[FailureDomain]:
    """Group nodes into failure domains by shared rack + PDU."""
    by_key: Dict[tuple, FailureDomain] = {}
    for node in cluster.nodes:
        key = (node.rack, node.pdu)
        domain = by_key.get(key)
        if domain is None:
            domain = FailureDomain(domain_id=f"{node.rack}/{node.pdu}")
            by_key[key] = domain
        domain.nodes.append(node)
    return sorted(by_key.values(), key=lambda d: d.domain_id)


def _domain_distance(
    topo: NetworkTopology,
    a: FailureDomain,
    b: FailureDomain,
    cache: Optional[Dict[Tuple[str, str], int]] = None,
) -> int:
    """Minimum switch hops between any node pair across two domains.

    Distances are symmetric, so with a ``cache`` each unordered domain
    pair is computed once.
    """
    key = (
        (a.domain_id, b.domain_id)
        if a.domain_id <= b.domain_id
        else (b.domain_id, a.domain_id)
    )
    if cache is not None and key in cache:
        return cache[key]
    distance = min(
        topo.hop_count(na.name, nb.name) for na in a.nodes for nb in b.nodes
    )
    if cache is not None:
        cache[key] = distance
    return distance


def partition_domains(
    domains: List[FailureDomain], parts: int
) -> List[List[FailureDomain]]:
    """Partition whole failure domains into ``parts`` groups, never splitting one.

    A PDU or ToR fault touches every node in its domain, so a group that
    holds whole domains keeps every blast radius inside it (the zones of
    :meth:`repro.topology.zones.ZoneMap.federate`).  Assignment is
    deterministic LPT by node count (largest domain first onto the
    least-loaded group; ties break by domain id, then group index), and
    each group's domains come back sorted by domain id.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    buckets: List[List[FailureDomain]] = [[] for _ in range(parts)]
    loads = [0] * parts
    for domain in sorted(domains, key=lambda d: (-len(d.nodes), d.domain_id)):
        target = min(range(parts), key=lambda s: (loads[s], s))
        buckets[target].append(domain)
        loads[target] += len(domain.nodes)
    for bucket in buckets:
        bucket.sort(key=lambda d: d.domain_id)
    return buckets


def partner_domains(
    topo: NetworkTopology,
    domains: List[FailureDomain],
) -> Dict[str, List[FailureDomain]]:
    """For each domain, the other domains sorted by hop distance.

    The balancer walks this list to find the *closest available* partner
    domain holding free SSDs ("storage devices for a job are allocated
    on the closest (fewest hops away) available partner domain").
    """
    partners: Dict[str, List[FailureDomain]] = {}
    cache: Dict[Tuple[str, str], int] = {}
    for domain in domains:
        others = [d for d in domains if d.domain_id != domain.domain_id]
        others.sort(
            key=lambda d: (_domain_distance(topo, domain, d, cache), d.domain_id)
        )
        partners[domain.domain_id] = others
    return partners
