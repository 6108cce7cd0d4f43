"""Reproduction of "Towards Rack-as-a-Computer in Memory Interconnect Era
with Coordinated Operating System Sharing" (FlacOS, HotStorage '25).

Public surface:

* :mod:`repro.rack` — the simulated memory-interconnect rack substrate.
* :mod:`repro.flacdk` — the FlacOS development kit (§3.2).
* :mod:`repro.core` — the FlacOS kernel (§3.3-3.6); ``FlacOS.boot``.
* :mod:`repro.net` — TCP/RDMA baseline stacks (Figure 1a systems).
* :mod:`repro.apps` — MiniRedis, containers, serverless (§4).
* :mod:`repro.workloads` — request/key/value generators.
* :mod:`repro.bench` — the experiment harness regenerating the paper's
  evaluation artifacts.

Quickstart::

    from repro import FlacOS, RackConfig, RackMachine

    machine = RackMachine(RackConfig(n_nodes=2))
    kernel = FlacOS.boot(machine)
    c0, c1 = kernel.context(0), kernel.context(1)
    fd = kernel.fs.open(c0, "/hello", create=True)
    kernel.fs.write(c0, fd, 0, b"one rack, one OS")
    print(kernel.fs.read(c1, kernel.fs.open(c1, "/hello"), 0, 16))
"""

from .core import FlacOS, OsCosts
from .rack import LatencyModel, RackConfig, RackMachine

__version__ = "0.1.0"

__all__ = [
    "FlacOS",
    "LatencyModel",
    "OsCosts",
    "RackConfig",
    "RackMachine",
    "__version__",
]
