"""Zone federation: failure domains grouped into availability zones.

The replicated control plane (ROADMAP: "Raft-backed metadata and
multi-zone federation") places one consensus member per zone, so losing
a whole zone — a rack's ToR, a PDU — leaves a quorum elsewhere.  A
:class:`ZoneMap` federates a cluster's failure domains into named zones
without splitting any domain (a domain fails as a unit, so splitting one
across zones would fake independence the hardware doesn't have), and
answers the two questions consensus needs: which zone is a node in
(fabric latency: intra vs cross zone), and which nodes should host the
group's members (``spread``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.topology.cluster import ClusterSpec
from repro.topology.failure_domains import (
    derive_failure_domains,
    partition_domains,
)

__all__ = ["Zone", "ZoneMap"]


@dataclass(frozen=True)
class Zone:
    """A named set of whole failure domains that fail independently of
    every other zone's hardware."""

    name: str
    domain_ids: Tuple[str, ...]
    node_names: Tuple[str, ...]

    def __contains__(self, node_name: str) -> bool:
        return node_name in self.node_names


class ZoneMap:
    """Node -> zone assignment derived from failure domains."""

    def __init__(self, zones: Sequence[Zone]):
        if not zones:
            raise ValueError("a zone map needs at least one zone")
        self.zones = list(zones)
        names = [z.name for z in self.zones]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate zone names: {sorted(names)}")
        self._zone_of: Dict[str, str] = {}
        for zone in self.zones:
            for node in zone.node_names:
                if node in self._zone_of:
                    raise ValueError(
                        f"node {node!r} appears in zones "
                        f"{self._zone_of[node]!r} and {zone.name!r}"
                    )
                self._zone_of[node] = zone.name

    # -- queries -------------------------------------------------------------

    def names(self) -> List[str]:
        return [z.name for z in self.zones]

    def zone(self, name: str) -> Zone:
        for zone in self.zones:
            if zone.name == name:
                return zone
        raise KeyError(f"no zone named {name!r}")

    def zone_of(self, node_name: str) -> str:
        try:
            return self._zone_of[node_name]
        except KeyError:
            raise KeyError(f"node {node_name!r} is in no zone") from None

    def nodes_in(self, zone_name: str) -> List[str]:
        return list(self.zone(zone_name).node_names)

    def spread(self, candidates: Sequence[str], count: int) -> List[str]:
        """Pick ``count`` of ``candidates`` round-robin across zones.

        One pick per zone (zone order, candidate order within a zone)
        before any zone contributes a second — the consensus placement
        rule: members land in distinct zones while zones last.
        """
        if count > len(candidates):
            raise ValueError(
                f"cannot spread {count} members over {len(candidates)} "
                "candidates"
            )
        by_zone: Dict[str, List[str]] = {z.name: [] for z in self.zones}
        for node in candidates:
            by_zone[self.zone_of(node)].append(node)
        picked: List[str] = []
        while len(picked) < count:
            progressed = False
            for zone in self.zones:
                pool = by_zone[zone.name]
                if pool:
                    picked.append(pool.pop(0))
                    progressed = True
                    if len(picked) == count:
                        break
            if not progressed:  # pragma: no cover - guarded by len check
                break
        return picked

    # -- construction ---------------------------------------------------------

    @classmethod
    def federate(cls, cluster: ClusterSpec, zones: int = 2) -> "ZoneMap":
        """Partition the cluster's failure domains into ``zones`` zones.

        Uses :func:`partition_domains` (deterministic LPT over whole
        domains), so a zone is always a union of failure domains and the
        assignment is reproducible from the cluster spec alone.
        """
        domains = derive_failure_domains(cluster)
        if zones > len(domains):
            raise ValueError(
                f"cannot federate {len(domains)} failure domains into "
                f"{zones} zones"
            )
        buckets = partition_domains(domains, zones)
        built = []
        for idx, bucket in enumerate(buckets):
            node_names = tuple(
                sorted(n.name for d in bucket for n in d.nodes)
            )
            built.append(Zone(
                name=f"zone{idx}",
                domain_ids=tuple(d.domain_id for d in bucket),
                node_names=node_names,
            ))
        return cls(built)
