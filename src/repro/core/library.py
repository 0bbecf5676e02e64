"""Artifact generation — the Python equivalent of ReSim's Tcl flow.

:class:`ResimBuilder` collects region descriptions bound to their
runtime RR slots, then :meth:`~ResimBuilder.build` instantiates the
simulation-only layer: one :class:`~repro.reconfig.icap.IcapArtifact`,
and per region an error injector plus an
:class:`~repro.reconfig.portal.ExtendedPortal`.  The returned
:class:`ResimArtifacts` handle also generates SimBs by region/module
*name*, so testbench code never hard-codes numeric IDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Type

from ..kernel import Module
from ..reconfig.icap import IcapArtifact
from ..reconfig.injector import ErrorInjector, XInjector
from ..reconfig.portal import ExtendedPortal
from ..reconfig.simb import DEFAULT_PAYLOAD_WORDS, build_simb
from .region import RegionSpec

__all__ = ["ResimBuilder", "ResimArtifacts", "ResimError"]


class ResimError(RuntimeError):
    pass


@dataclass
class _BoundRegion:
    spec: RegionSpec
    slot: object
    injector_cls: Type[ErrorInjector]
    dcr_victims: tuple
    portal_swap_early: bool = False


class ResimBuilder:
    """Describe regions, then generate the simulation-only layer."""

    def __init__(self) -> None:
        self._regions: List[_BoundRegion] = []
        self._built = False

    def add_region(
        self,
        spec: RegionSpec,
        slot,
        injector_cls: Type[ErrorInjector] = XInjector,
        dcr_victims: Iterable = (),
        portal_swap_early: bool = False,
    ) -> None:
        """Bind a region description to its runtime slot.

        ``injector_cls`` is the OOP extension point the paper highlights:
        pass a subclass of :class:`ErrorInjector` to override the default
        X injection with design-specific error sources.
        """
        if self._built:
            raise ResimError("builder already built; create a new one")
        if spec.rr_id != slot.rr_id:
            raise ResimError(
                f"region spec id {spec.rr_id:#x} does not match slot id "
                f"{slot.rr_id:#x}"
            )
        if any(b.spec.rr_id == spec.rr_id for b in self._regions):
            raise ResimError(f"region id {spec.rr_id:#x} added twice")
        spec_ids = {m.module_id for m in spec.modules}
        slot_ids = set(slot.engines)
        if spec_ids != slot_ids:
            raise ResimError(
                f"region {spec.name!r} declares modules {sorted(spec_ids)} "
                f"but the slot holds {sorted(slot_ids)}"
            )
        self._regions.append(
            _BoundRegion(
                spec, slot, injector_cls, tuple(dcr_victims), portal_swap_early
            )
        )

    def build(self, parent: Optional[Module] = None) -> "ResimArtifacts":
        """Instantiate ICAP + per-region portal/injector artifacts."""
        if self._built:
            raise ResimError("builder already built; create a new one")
        if not self._regions:
            raise ResimError("no regions declared")
        self._built = True
        icap = IcapArtifact("icap_artifact", parent=parent)
        portals: Dict[int, ExtendedPortal] = {}
        injectors: Dict[int, ErrorInjector] = {}
        for bound in self._regions:
            injector = bound.injector_cls(
                f"injector_{bound.spec.name}",
                bound.slot,
                dcr_victims=bound.dcr_victims,
                parent=parent,
            )
            portal = ExtendedPortal(
                f"portal_{bound.spec.name}",
                bound.slot,
                injector,
                swap_early=bound.portal_swap_early,
                parent=parent,
            )
            icap.register_portal(portal)
            portals[bound.spec.rr_id] = portal
            injectors[bound.spec.rr_id] = injector
        return ResimArtifacts(
            icap=icap,
            portals=portals,
            injectors=injectors,
            specs={b.spec.rr_id: b.spec for b in self._regions},
        )


class ResimArtifacts:
    """Handle on the generated simulation-only layer."""

    def __init__(self, icap, portals, injectors, specs):
        self.icap = icap
        self.portals: Dict[int, ExtendedPortal] = portals
        self.injectors: Dict[int, ErrorInjector] = injectors
        self.specs: Dict[int, RegionSpec] = specs

    def region(self, name_or_id) -> RegionSpec:
        if isinstance(name_or_id, int):
            try:
                return self.specs[name_or_id]
            except KeyError:
                raise ResimError(f"no region with id {name_or_id:#x}") from None
        for spec in self.specs.values():
            if spec.name == name_or_id:
                return spec
        raise ResimError(f"no region named {name_or_id!r}")

    def portal(self, name_or_id) -> ExtendedPortal:
        return self.portals[self.region(name_or_id).rr_id]

    def injector(self, name_or_id) -> ErrorInjector:
        return self.injectors[self.region(name_or_id).rr_id]

    def simb_for(
        self,
        region,
        module,
        payload_words: int = DEFAULT_PAYLOAD_WORDS,
        seed: Optional[int] = None,
        crc: bool = False,
    ) -> List[int]:
        """Generate a SimB addressing a region/module by name or id.

        Each call builds a fresh list the caller may mutate freely.
        """
        spec = self.region(region)
        if isinstance(module, int):
            mod = spec.module_by_id(module)
        else:
            mod = spec.module_by_name(module)
        return build_simb(
            spec.rr_id, mod.module_id, payload_words=payload_words,
            seed=seed, crc=crc,
        )
