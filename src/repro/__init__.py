"""Pluginized QUIC (PQUIC, SIGCOMM 2019) reproduced in Python.

Subpackages:

* :mod:`repro.netsim` — discrete-event network simulator (the testbed).
* :mod:`repro.quic` — the QUIC implementation, decomposed into protocol
  operations.
* :mod:`repro.vm` — the Pluglet Runtime Environment (verifier,
  interpreter with memory monitor, JIT, assembler, restricted-Python
  compiler) and its static analyzer, whose termination checker
  (:mod:`repro.vm.analysis.termination`) validates pluglets.
* :mod:`repro.core` — pluginization machinery (protoops, plugins, helper
  API, frame scheduler, cache, in-band exchange).
* :mod:`repro.secure` — the distributed trust system (validators, Merkle
  prefix trees, the plugin repository).
* :mod:`repro.plugins` — monitoring, datagram, multipath, FEC and
  congestion-control plugins as PRE bytecode.
* :mod:`repro.apps` — VPN tunnel and bulk-transfer applications.
* :mod:`repro.experiments` — WSP design sampling and scenario runners.
"""

__version__ = "1.0.0"
