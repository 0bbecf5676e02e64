"""repro — reproduction of "RTL Simulation of High Performance Dynamic
Reconfiguration: A Video Processing Case Study" (IPPS/RAW 2013).

The package implements, in pure Python:

* :mod:`repro.kernel` — a three-valued, delta-cycle RTL simulation kernel,
* :mod:`repro.bus` — PLB system bus, DCR daisy chain, interrupt controller,
* :mod:`repro.cpu` — a PowerPC-lite instruction-set simulator + assembler,
* :mod:`repro.video` — synthetic video, golden optical-flow models, VIPs,
* :mod:`repro.engines` — the Census Image Engine and Matching Engine,
* :mod:`repro.reconfig` — IcapCTRL, SimB bitstreams, ICAP/portal/error
  injector artifacts and isolation logic (the ReSim machinery),
* :mod:`repro.vmux` — the Virtual Multiplexing baseline,
* :mod:`repro.core` — the ReSim-style user-facing library API,
* :mod:`repro.system` — the assembled AutoVision Optical Flow Demonstrator,
* :mod:`repro.verif` — scoreboards, monitors and the Table III bug campaign,
* :mod:`repro.analysis` — activity profiling and report generation.
"""

__version__ = "0.1.0"
