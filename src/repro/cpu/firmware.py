"""The demonstrator's control program in PPC-lite assembly.

This is the ISS counterpart of the HAL software model
(:mod:`repro.system.software`): the same interrupt-driven per-frame
flow, for any number of frames — ask the camera for the frame, start
the CIE, sleep in ``wait`` until the engine-done ISR fires, reconfigure
the region through the real IcapCTRL driver (program BADDR/BSIZE in
**bytes**, kick the DMA, poll STATUS over the daisy chain), reset and
start the ME, reconfigure back and report the frame.  Running it
demonstrates the paper's full-system simulation: embedded software on
an instruction-set simulator driving cycle-accurate RTL through the
reconfiguration process.

Register conventions: ``r13`` counts engine-done interrupts (written
only by the ISR), ``r14`` counts those the main loop has consumed,
``r26``/``r27`` are ISR scratch, ``r5`` carries the bitstream address
into the ``reconfigure`` subroutine.  The frame loop keeps the frames
remaining in ``r20``, the feature ping-pong in ``r21``/``r22``, the
vector ping-pong in ``r18``/``r19``, the frame index in ``r24`` and the
first-frame flag in ``r28``.

The ``wait_engine`` loop uses the disable-check-wait idiom so an
interrupt landing between the check and the ``wait`` cannot be lost
(the INTC's latched pending level keeps ``wait`` from blocking).
"""

from __future__ import annotations

from typing import Optional

from ..system.autovision import (
    DCR_ENGINE_REGS,
    DCR_ICAPCTRL,
    DCR_INTC,
    AutoVisionSystem,
    SystemConfig,
)
from .assembler import assemble
from .iss import PpcLiteIss

__all__ = [
    "optical_flow_firmware",
    "attach_iss",
    "FIRMWARE_EXIT_OK",
    "SVC_LOAD_FRAME",
    "SVC_FRAME_DONE",
]

#: service call the firmware issues to have the camera VIP load input
#: frame r3 (:func:`build_iss_demo` installs the handler)
SVC_LOAD_FRAME = 3
#: service call reporting one frame fully processed (r3 = frame index)
SVC_FRAME_DONE = 4

#: exit status the firmware reports on success
FIRMWARE_EXIT_OK = 0


def optical_flow_firmware(
    system: AutoVisionSystem, n_frames: int = 1, faults=frozenset()
) -> str:
    """Generate the control program for ``n_frames`` frames on ``system``.

    Constants (register addresses, buffer addresses, the bitstream size
    in bytes) are baked in as ``.equ`` directives from the live system
    object, exactly as a board-support header would provide them.

    Every frame runs the loop of Fig. 2: the camera VIP is asked for
    the frame via service call ``SVC_LOAD_FRAME`` (r3 = frame index),
    the CIE and ME run with a reconfiguration between them and one
    back, and the frame is reported via ``SVC_FRAME_DONE`` so the host
    can check its buffers before they are recycled.  Feature and vector
    buffers ping-pong between frames: the ME matches the current
    frame's features against the previous frame's (against themselves
    on the first frame).

    ``faults`` re-creates the software-side Table III bugs *in the
    assembly driver itself*, so ISS-level simulation detects the same
    defects the HAL campaign does:

    * ``dpr.5`` — the driver still computes BSIZE in words,
    * ``dpr.6b`` — instead of polling the transfer status, the driver
      spins a fixed dummy loop calibrated for the original fast
      configuration clock ("adding several dummy loops in the
      software", Table III).
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    faults = frozenset(faults)
    unknown = faults - {"dpr.5", "dpr.6b"}
    if unknown:
        raise ValueError(f"firmware cannot model faults: {sorted(unknown)}")
    size_bytes = system.bitstream_size_bytes()
    programmed_size = size_bytes // 4 if "dpr.5" in faults else size_bytes
    # dummy-loop iterations ~ 1.7 bus cycles per word (see the HAL's
    # ResimReconfigStrategy): enough at 100 MHz cfg, too short at 50 MHz
    dummy_iters = int((size_bytes // 4) * 1.7)
    if "dpr.6b" in faults:
        wait_block = f"""
        # BUG dpr.6b: fixed dummy-loop delay instead of status polling
        li    r4, {dummy_iters}
        mtctr r4
rc_delay:
        bdnz  rc_delay
"""
    else:
        wait_block = """
rc_poll:
        mfdcr r3, RC_STATUS
        andi  r3, r3, 1
        cmpwi r3, 0
        beq   rc_poll
        li    r3, 1
        mtdcr r3, RC_STATUS      # W1C acknowledge of the done bit
"""
    mm = system.memory_map
    return f"""
# ---- board support constants -------------------------------------
.equ INTC_ISR,   {DCR_INTC + 0:#x}
.equ INTC_IER,   {DCR_INTC + 1:#x}
.equ ENG_CTRL,   {DCR_ENGINE_REGS + 0:#x}
.equ ENG_STATUS, {DCR_ENGINE_REGS + 1:#x}
.equ ENG_SRC1,   {DCR_ENGINE_REGS + 2:#x}
.equ ENG_SRC2,   {DCR_ENGINE_REGS + 3:#x}
.equ ENG_DST,    {DCR_ENGINE_REGS + 4:#x}
.equ ENG_WIDTH,  {DCR_ENGINE_REGS + 5:#x}
.equ ENG_HEIGHT, {DCR_ENGINE_REGS + 6:#x}
.equ ENG_RADIUS, {DCR_ENGINE_REGS + 7:#x}
.equ ENG_ISO,    {DCR_ENGINE_REGS + 8:#x}
.equ RC_BADDR,   {DCR_ICAPCTRL + 0:#x}
.equ RC_BSIZE,   {DCR_ICAPCTRL + 1:#x}
.equ RC_CTRL,    {DCR_ICAPCTRL + 2:#x}
.equ RC_STATUS,  {DCR_ICAPCTRL + 3:#x}
.equ INPUT0,     {mm.input[0]:#x}
.equ FEAT0,      {mm.feat[0]:#x}
.equ FEAT1,      {mm.feat[1]:#x}
.equ VEC0,       {mm.vec[0]:#x}
.equ VEC1,       {mm.vec[1]:#x}
.equ BS_CIE,     {mm.bs_cie:#x}
.equ BS_ME,      {mm.bs_me:#x}
.equ BS_BYTES,   {programmed_size:#x}
.equ WIDTH,      {system.config.width}
.equ HEIGHT,     {system.config.height}
.equ RADIUS,     {system.config.radius}
.equ N_FRAMES,   {n_frames}

        b main

# ---- engine-done interrupt service routine -----------------------
.org 0x500
isr:
        mfdcr r26, INTC_ISR      # read pending sources
        mtdcr r26, INTC_ISR      # write-one-to-clear acknowledge
        andi  r27, r26, 1        # engine-done is source 0
        cmpwi r27, 0
        beq   isr_out
        addi  r13, r13, 1        # bump the engine-done count
isr_out:
        rfi

# ---- main program -------------------------------------------------
.org 0x600
main:
        li    r13, 0
        li    r14, 0
        li    r3, 1
        mtdcr r3, INTC_IER       # enable the engine-done interrupt
        li    r3, WIDTH
        mtdcr r3, ENG_WIDTH
        li    r3, HEIGHT
        mtdcr r3, ENG_HEIGHT
        li    r3, RADIUS
        mtdcr r3, ENG_RADIUS
        wrteei1
        li    r20, N_FRAMES      # frames remaining
        li    r21, FEAT0         # current feature buffer
        li    r22, FEAT1         # previous feature buffer
        li    r18, VEC0          # current vector buffer
        li    r19, VEC1          # spare vector buffer
        li    r24, 0             # frame index
        li    r28, 1             # first-frame flag

frame_loop:
        # ---- camera: ask the VIP for the next input frame ---------
        mr    r3, r24
        li    r0, {SVC_LOAD_FRAME}
        sc

        # ---- CIE phase: input frame -> feature image -------------
        li    r3, INPUT0
        mtdcr r3, ENG_SRC1
        mtdcr r21, ENG_DST
        li    r3, 2
        mtdcr r3, ENG_CTRL       # reset
        li    r3, 1
        mtdcr r3, ENG_CTRL       # start
        bl    wait_engine

        # ---- DPR #1: swap the region to the Matching Engine ------
        li    r5, BS_ME
        bl    reconfigure

        # ---- ME phase: features -> motion vectors -----------------
        mtdcr r21, ENG_SRC1      # current features
        cmpwi r28, 0
        beq   use_prev
        mtdcr r21, ENG_SRC2      # first frame: previous = current
        b     me_src_done
use_prev:
        mtdcr r22, ENG_SRC2
me_src_done:
        li    r28, 0
        mtdcr r18, ENG_DST
        li    r3, 2
        mtdcr r3, ENG_CTRL       # reset the freshly configured engine
        li    r3, 1
        mtdcr r3, ENG_CTRL       # start
        bl    wait_engine

        # ---- DPR #2: swap back to the CIE for the next frame ------
        li    r5, BS_CIE
        bl    reconfigure

        # ---- report the frame, rotate the ping-pong buffers ---------
        mr    r3, r24
        li    r0, {SVC_FRAME_DONE}
        sc
        mr    r3, r21            # swap feature buffers
        mr    r21, r22
        mr    r22, r3
        mr    r3, r18            # swap vector buffers
        mr    r18, r19
        mr    r19, r3
        addi  r24, r24, 1
        addi  r20, r20, -1
        cmpwi r20, 0
        bne   frame_loop

        # ---- report and exit ---------------------------------------
        mr    r3, r13            # engine-done interrupts (2 per frame)
        li    r0, 2
        sc                       # report
        li    r3, 0
        li    r0, 0
        sc                       # exit(0)

# ---- wait for the next engine-done interrupt ----------------------
# disable-check-wait idiom: no lost wakeups
wait_engine:
we_loop:
        wrteei0
        cmpw  r13, r14
        bne   we_got
        wait                     # wakes on the (level) irq line
        wrteei1                  # take the pending interrupt now
        b     we_loop
we_got:
        wrteei1
        addi  r14, r14, 1
        blr

# ---- reconfigure the region via the IcapCTRL driver ----------------
# r5 = partial bitstream base address; clobbers r3
reconfigure:
        li    r3, 1
        mtdcr r3, ENG_ISO        # arm isolation before the transfer
        mtdcr r5, RC_BADDR
        li    r3, BS_BYTES       # hardware contract: size in BYTES
        mtdcr r3, RC_BSIZE
        li    r3, 1
        mtdcr r3, RC_CTRL        # start the DMA
{wait_block}
        li    r3, 0
        mtdcr r3, ENG_ISO        # drop isolation
        blr
"""


def attach_iss(
    system: AutoVisionSystem, imem_words: int = 16 * 1024
) -> PpcLiteIss:
    """Instantiate a PPC-lite core wired into the demonstrator.

    Must be called before the system is elaborated (``system.build()``).
    The core uses the system's CPU PLB port, its DCR bus, and the INTC
    irq line — the exact attachment points of the PowerPC in Fig. 1.
    """
    if system.sim is not None:
        raise RuntimeError("attach_iss must run before system.build()")
    return PpcLiteIss(
        "ppc",
        system.bus_clock,
        port=system.cpu_port,
        dcr=system.dcr,
        irq=system.intc.irq,
        imem_words=imem_words,
        parent=system,
    )


def build_iss_demo(
    config: Optional[SystemConfig] = None,
    firmware_faults=frozenset(),
):
    """Convenience: system + ISS + assembled one-frame firmware, ready to run.

    The camera service loads frame r3 into the input buffer by backdoor;
    the frame-done service is a no-op (callers may replace either).
    """
    if config is None:
        config = SystemConfig(width=48, height=32, simb_payload_words=128)
    if config.method != "resim":
        raise ValueError("the firmware drives the real IcapCTRL: use resim")
    system = AutoVisionSystem(config)
    iss = attach_iss(system)
    program = assemble(optical_flow_firmware(system, faults=firmware_faults))
    iss.load(program)
    input0 = system.memory_map.input[0]
    iss.services[SVC_LOAD_FRAME] = lambda cpu: system.video_in.send_frame_backdoor(
        cpu._get(3), system.memory, input0
    )
    iss.services[SVC_FRAME_DONE] = lambda cpu: None
    return system, iss, program
