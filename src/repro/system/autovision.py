"""SoC assembly of the Optical Flow Demonstrator (Fig. 1).

One constructor builds the whole DUT under either simulation method:

* ``method="resim"`` — the real reconfiguration machinery is live: the
  IcapCTRL DMAs SimBs into the ICAP artifact, the Extended Portal swaps
  engines, the error injector corrupts the RR boundary during transfer,
* ``method="vmux"`` — the Virtual Multiplexing baseline: an
  ``engine_signature`` register drives the mux, the IcapCTRL is
  instantiated but wired to a null configuration port, and no errors
  are ever injected.

Historical defects are re-created by fault keys (see
:mod:`repro.verif.faults`); the assembly consults the hardware-side
keys (``dpr.4``, ``dpr.2``, ``hw.2``) and the software driver consults
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from ..bus import DcrBus, InterruptController, PlbBus, PlbMemory
from ..core import ModuleSpec, RegionSpec, ResimBuilder
from ..engines import CensusImageEngine, EngineRegs, MatchingEngine
from ..kernel import Clock, MHz, Module, Simulator
from ..reconfig import IcapCtrl, Isolation, RRSlot
from ..video import FrameSequence, SceneConfig, VideoInVIP, VideoOutVIP
from ..vmux import VirtualMuxWrapper

__all__ = ["SystemConfig", "MemoryMap", "AutoVisionSystem", "NullConfigPort"]

RR_ID = 0x1

# DCR address map
DCR_ENGINE_REGS = 0x10
DCR_INTC = 0x00
DCR_ICAPCTRL = 0x20
DCR_VMUX_SIG = 0x30

# interrupt source indices
IRQ_ENGINE_DONE = 0
IRQ_RECONFIG_DONE = 1


@dataclass(frozen=True)
class SystemConfig:
    """Build-time parameters of the demonstrator."""

    method: str = "resim"  # "resim" | "vmux"
    width: int = 160
    height: int = 120
    n_objects: int = 3
    seed: int = 2013
    bus_mhz: float = 100.0
    #: the re-integrated design's *slower* configuration clock (§V-A);
    #: the original design effectively ran it at bus speed
    cfg_mhz: float = 50.0
    simb_payload_words: int = 1024
    radius: int = 2
    faults: FrozenSet[str] = frozenset()
    #: load camera frames without bus traffic (fast functional mode)
    video_backdoor: bool = False
    profile: bool = False
    #: ablation knobs (resim method only) — see DESIGN.md §5
    injector_policy: str = "x"  # "x" | "none"
    portal_swap_early: bool = False
    #: the fault-tolerance stack: CRC'd SimBs, IcapCTRL transfer
    #: watchdog + truncation detection, and the driver's bounded-retry /
    #: graceful-degradation policy.  Off by default so the historical
    #: bug reproductions keep their original (unprotected) behaviour.
    fault_tolerance: bool = False
    #: watchdog no-progress window in bus cycles (fault_tolerance only)
    watchdog_cycles: int = 1024
    #: driver retry policy (fault_tolerance only)
    max_reconfig_attempts: int = 3
    retry_backoff_cycles: int = 64
    #: structured tracing (see :mod:`repro.analysis.tracing`): when on,
    #: :meth:`build` attaches a Tracer and installs the bus observers.
    #: Off by default — a tracing-off simulation must pay nothing.
    tracing: bool = False
    #: optional category filter, e.g. ``frozenset({"reconfig"})``;
    #: ``None`` records every category
    trace_categories: Optional[FrozenSet[str]] = None
    #: kernel execution backend (see :mod:`repro.kernel.codegen`):
    #: ``"interp"`` is the event-driven interpreter, ``"codegen"``
    #: compiles a per-design scheduler driver at first run and falls
    #: back to the interpreter for anything it cannot prove exact
    backend: str = "interp"

    def __post_init__(self) -> None:
        if self.method not in ("resim", "vmux", "dcs"):
            raise ValueError(f"unknown simulation method {self.method!r}")
        if self.backend not in ("interp", "codegen"):
            raise ValueError(f"unknown execution backend {self.backend!r}")
        if self.injector_policy not in ("x", "none"):
            raise ValueError(f"unknown injector policy {self.injector_policy!r}")
        if self.watchdog_cycles < 1:
            raise ValueError("watchdog_cycles must be >= 1")
        if self.max_reconfig_attempts < 1:
            raise ValueError("max_reconfig_attempts must be >= 1")

    def scene(self) -> SceneConfig:
        return SceneConfig(
            width=self.width,
            height=self.height,
            n_objects=self.n_objects,
            seed=self.seed,
        )


def _align(addr: int, alignment: int = 0x1000) -> int:
    return (addr + alignment - 1) & ~(alignment - 1)


class MemoryMap:
    """Buffer layout in main memory, derived from the frame geometry."""

    def __init__(self, config: SystemConfig):
        frame_bytes = config.width * config.height  # 8bpp
        vec_bytes = config.width * config.height  # byte-packed vectors
        bs_bytes = (config.simb_payload_words + 16) * 4
        cursor = 0

        def place(size: int) -> int:
            nonlocal cursor
            base = cursor
            cursor = _align(cursor + size)
            return base

        self.input = [place(frame_bytes), place(frame_bytes)]  # ping-pong
        self.feat = [place(frame_bytes), place(frame_bytes)]
        self.vec = [place(vec_bytes), place(vec_bytes)]
        self.out = [place(frame_bytes), place(frame_bytes)]
        self.bs_cie = place(bs_bytes)
        self.bs_me = place(bs_bytes)
        self.size = _align(cursor, 0x10000)
        self.frame_bytes = frame_bytes
        self.frame_words = frame_bytes // 4


class NullConfigPort(Module):
    """The unused ICAP of a Virtual-Multiplexing simulation.

    The IcapCTRL is instantiated (it is part of the user design) but
    nothing parses what it writes — exactly the blind spot the paper
    attributes to the method.
    """

    def __init__(self, name: str = "null_icap", parent=None):
        super().__init__(name, parent)
        self.words_received = 0
        self.words_read = 0

    def write_word(self, word) -> None:
        self.words_received += 1

    def read_word(self) -> int:
        self.words_read += 1
        return 0


class AutoVisionSystem(Module):
    """The complete Optical Flow Demonstrator SoC."""

    def __init__(self, config: SystemConfig):
        super().__init__("autovision")
        self.config = config
        faults = config.faults
        self.memory_map = MemoryMap(config)

        # -- clocks ------------------------------------------------------
        self.bus_clock = Clock("bus_clk", MHz(config.bus_mhz), parent=self)
        self.cfg_clock = Clock("cfg_clk", MHz(config.cfg_mhz), parent=self)

        # -- interconnect --------------------------------------------------
        self.bus = PlbBus("plb", self.bus_clock, parent=self)
        self.memory = PlbMemory("mem", self.memory_map.size, parent=self)
        self.bus.attach_slave(self.memory, base=0, size=self.memory_map.size)
        self.dcr = DcrBus("dcr", self.bus_clock, parent=self)

        # -- static-region register blocks ---------------------------------
        self.engine_regs = EngineRegs("engine_regs", DCR_ENGINE_REGS, parent=self)
        self.intc = InterruptController(
            "intc", DCR_INTC, clock=self.bus_clock, parent=self
        )

        # -- the reconfigurable region -------------------------------------
        self.cie = CensusImageEngine(clock=self.bus_clock, parent=self)
        self.me = MatchingEngine(clock=self.bus_clock, parent=self)
        self.slot = RRSlot(
            "rr0",
            RR_ID,
            self.bus.attach_master("rr0"),
            self.engine_regs,
            [self.cie, self.me],
            parent=self,
        )
        self.isolation = Isolation("isolation", self.slot, parent=self)
        # software arms the isolation logic through a static-region DCR bit
        self.engine_regs.add_register(
            "ISO", 8, on_write=lambda v: self.isolation.set_enabled(v & 1)
        )

        # -- reconfiguration controller (user design, all methods) ---------
        self.vmux: Optional[VirtualMuxWrapper] = None
        self.dcs = None
        self.artifacts = None
        if config.method == "resim":
            from ..reconfig.injector import NoopInjector, XInjector

            builder = ResimBuilder()
            builder.add_region(
                RegionSpec(
                    RR_ID,
                    "video_rr",
                    [
                        ModuleSpec(self.cie.ENGINE_ID, "cie"),
                        ModuleSpec(self.me.ENGINE_ID, "me"),
                    ],
                ),
                self.slot,
                injector_cls=(
                    XInjector if config.injector_policy == "x" else NoopInjector
                ),
                dcr_victims=[self.engine_regs] if "dpr.2" in faults else (),
                portal_swap_early=config.portal_swap_early,
            )
            self.artifacts = builder.build(parent=self)
            icap_target = self.artifacts.icap
        else:
            icap_target = NullConfigPort(parent=self)
        self.icap = icap_target
        self.icapctrl = IcapCtrl(
            "icapctrl",
            base=DCR_ICAPCTRL,
            bus=self.bus,
            icap=icap_target,
            bus_clock=self.bus_clock,
            cfg_clock=self.cfg_clock,
            arbitrated="dpr.4" not in faults,
            watchdog_cycles=(
                config.watchdog_cycles if config.fault_tolerance else 0
            ),
            detect_truncation=config.fault_tolerance,
            parent=self,
        )
        if config.method == "vmux":
            self.vmux = VirtualMuxWrapper(
                "vmux",
                self.slot,
                dcr_base=DCR_VMUX_SIG,
                # bug.hw.2: the signature register is left uninitialized
                initial_signature=None if "hw.2" in faults else self.cie.ENGINE_ID,
                parent=self,
            )
        elif config.method == "dcs":
            from ..reconfig.injector import XInjector
            from ..vmux import DcsWrapper

            dcs_injector = XInjector(
                "dcs_injector",
                self.slot,
                dcr_victims=[self.engine_regs] if "dpr.2" in faults else (),
                parent=self,
            )
            self.dcs = DcsWrapper(
                "dcs",
                self.slot,
                dcs_injector,
                clock=self.bus_clock,
                dcr_base=DCR_VMUX_SIG,
                initial_signature=None if "hw.2" in faults else self.cie.ENGINE_ID,
                parent=self,
            )

        # -- DCR daisy chain (order matters for chain-break behaviour) -----
        self.dcr.attach(self.engine_regs)
        self.dcr.attach(self.intc)
        self.dcr.attach(self.icapctrl)
        if self.vmux is not None:
            self.dcr.attach(self.vmux.signature)
        if self.dcs is not None:
            self.dcr.attach(self.dcs.signature)

        # -- interrupts -----------------------------------------------------
        self.intc.connect_source("engine_done", self.isolation.out_done)
        self.intc.connect_source("reconfig_done", self.icapctrl.done_irq)

        # -- video VIPs ------------------------------------------------------
        self.sequence = FrameSequence(config.scene())
        self.video_in = VideoInVIP(
            "video_in", self.bus.attach_master("video_in"), self.sequence,
            parent=self,
        )
        self.video_out = VideoOutVIP(
            "video_out", self.bus.attach_master("video_out"), parent=self
        )

        # -- processor data port (used by the HAL software model) ----------
        self.cpu_port = self.bus.attach_master("cpu", priority=2)

        # -- initial configuration ------------------------------------------
        # At power-up the full bitstream configures the CIE into the RR
        # (ReSim); under VMux the wrapper's initial signature does this
        # unless bug.hw.2 left it unselected.
        if config.method == "resim":
            self.slot.select(self.cie.ENGINE_ID)
            self.cie.is_reset = True  # full-bitstream config includes init

        if config.method == "resim":
            self._load_bitstreams()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _load_bitstreams(self) -> None:
        """Initialize main memory from a cached pristine image.

        The pristine power-up contents — zeros with both engines'
        partial SimBs at their bases — are pure in the configuration,
        so they are built once per (geometry, SimB length, CRC) in the
        process-global artifact cache and *deep-copied* into this
        system's memory.  A campaign sweeping bugs and methods over one
        operating point pays the SimB encoding cost once, not per run.
        """
        from ..exec.cache import ARTIFACT_CACHE

        mm = self.memory_map
        placements = (
            ("cie", self.cie.ENGINE_ID, mm.bs_cie),
            ("me", self.me.ENGINE_ID, mm.bs_me),
        )
        key = (
            RR_ID,
            tuple((name, mid, base) for name, mid, base in placements),
            self.config.simb_payload_words,
            self.config.fault_tolerance,
            mm.size,
        )

        def build():
            image = np.zeros(mm.size // 4, dtype=np.uint32)
            simbs = {}
            for module_name, module_id, base in placements:
                words = self.artifacts.simb_for(
                    "video_rr", module_name,
                    payload_words=self.config.simb_payload_words,
                    crc=self.config.fault_tolerance,
                )
                arr = np.array(words, dtype=np.uint32)
                image[base // 4 : base // 4 + len(arr)] = arr
                simbs[module_id] = arr
            return image, simbs

        image, simbs = ARTIFACT_CACHE.get("memimg", key, build)
        self.memory.words[:] = image  # per-run deep copy of the pristine image
        #: read-only cached arrays; load_words copies on every use
        self._pristine_simbs = simbs
        self.bitstream_words = len(simbs[self.me.ENGINE_ID])

    def refresh_bitstream(self, module_id: int) -> None:
        """Rewrite a module's SimB from its pristine image.

        Models the recovery driver reloading the partial bitstream from
        non-volatile storage, which is what makes in-memory corruption
        transients recoverable.
        """
        self.memory.load_words(
            self.bitstream_base(module_id), self._pristine_simbs[module_id]
        )

    def bitstream_base(self, module_id: int) -> int:
        if module_id == self.cie.ENGINE_ID:
            return self.memory_map.bs_cie
        if module_id == self.me.ENGINE_ID:
            return self.memory_map.bs_me
        raise KeyError(f"no bitstream for module {module_id:#x}")

    def bitstream_size_bytes(self) -> int:
        """True size of each partial bitstream in bytes (HW contract)."""
        from ..reconfig.simb import simb_header_words

        header = simb_header_words(crc=self.config.fault_tolerance)
        return (header + self.config.simb_payload_words + 2) * 4

    def build(self, profile: Optional[bool] = None) -> Simulator:
        """Create a simulator and elaborate the system into it.

        With ``config.tracing`` a :class:`~repro.analysis.tracing.Tracer`
        is attached (reachable as ``sim.tracer``) and bus observers are
        installed before elaboration, so the trace covers the whole run.
        """
        sim = Simulator(
            profile=self.config.profile if profile is None else profile,
            backend=self.config.backend,
        )
        if self.config.tracing:
            # deferred import: repro.analysis pulls in profiling, which
            # imports this module back
            from ..analysis.tracing import Tracer, install_bus_tracing

            tracer = Tracer(categories=self.config.trace_categories)
            tracer.attach(sim)
            install_bus_tracing(tracer, plb=self.bus, dcr=self.dcr)
        sim.add_module(self)
        return sim
