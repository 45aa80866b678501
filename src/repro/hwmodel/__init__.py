"""Generic hardware-modelling substrate.

This subpackage provides the building blocks the Chain-NN processor core is
assembled from: a 16-bit fixed-point number system, registers and shift
registers, a multiply-accumulate (MAC) datapath, channel multiplexers,
register-file / SRAM storage with access counting, clock domains and a small
cycle-driven simulation engine.

The abstraction level is *register-transfer behaviour*: component state only
changes on :meth:`~repro.hwmodel.simulator.ClockedComponent.tick`, and
combinational outputs are recomputed from the current state, which is exactly
the level the paper's ModelSim functional simulation validates.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ClockDomain": "repro.hwmodel.clock",
    "ClockedComponent": "repro.hwmodel.simulator",
    "CycleSimulator": "repro.hwmodel.simulator",
    "FixedPointFormat": "repro.hwmodel.fixed_point",
    "MacUnit": "repro.hwmodel.mac",
    "Mux": "repro.hwmodel.mux",
    "Pipeline": "repro.hwmodel.register",
    "Register": "repro.hwmodel.register",
    "RegisterFile": "repro.hwmodel.memory",
    "ShiftRegister": "repro.hwmodel.register",
    "Sram": "repro.hwmodel.memory",
    "quantize_array": "repro.hwmodel.fixed_point",
    "quantize_value": "repro.hwmodel.fixed_point",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
