"""Storage models: per-PE register files (kMemory) and SRAM banks.

Both models track read/write access counts and bytes moved; the energy model
multiplies these counters by per-access energies.  Capacities are enforced so
that configuration mistakes (e.g. more kernel weights than the 256-entry
kMemory can hold) raise :class:`repro.errors.CapacityError` instead of
silently producing optimistic results.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CapacityError


class AccessCounters:
    """Read/write counters shared by the storage models."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def record_read(self, num_bytes: int, count: int = 1) -> None:
        """Record ``count`` read accesses totalling ``num_bytes`` bytes."""
        self.reads += count
        self.bytes_read += num_bytes

    def record_write(self, num_bytes: int, count: int = 1) -> None:
        """Record ``count`` write accesses totalling ``num_bytes`` bytes."""
        self.writes += count
        self.bytes_written += num_bytes

    @property
    def total_accesses(self) -> int:
        """Total number of read + write accesses."""
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        """Total bytes moved in either direction."""
        return self.bytes_read + self.bytes_written

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0


class RegisterFile:
    """A small word-addressed register file — the per-PE ``kMemory``.

    The paper distributes 295 KB of kernel storage over 576 PEs, i.e. 256
    16-bit entries per PE.  Entries are raw fixed-point integers.
    """

    def __init__(self, depth: int = 256, word_bytes: int = 2, name: str = "kMemory") -> None:
        if depth <= 0:
            raise CapacityError(f"{name}: depth must be positive, got {depth}")
        if word_bytes <= 0:
            raise CapacityError(f"{name}: word_bytes must be positive, got {word_bytes}")
        self.name = name
        self.depth = depth
        self.word_bytes = word_bytes
        self._data: List[int] = [0] * depth
        self.counters = AccessCounters()

    @property
    def capacity_bytes(self) -> int:
        """Total storage capacity in bytes."""
        return self.depth * self.word_bytes

    def write(self, address: int, value: int) -> None:
        """Write one word."""
        self._check_address(address)
        self._data[address] = int(value)
        self.counters.record_write(self.word_bytes)

    def read(self, address: int) -> int:
        """Read one word."""
        self._check_address(address)
        self.counters.record_read(self.word_bytes)
        return self._data[address]

    def load(self, values: List[int], base: int = 0) -> None:
        """Bulk-load ``values`` starting at ``base`` (counts one write per word)."""
        if base < 0 or base + len(values) > self.depth:
            raise CapacityError(
                f"{self.name}: cannot load {len(values)} words at {base} "
                f"(depth {self.depth})"
            )
        for offset, value in enumerate(values):
            self.write(base + offset, value)

    def peek(self, address: int) -> int:
        """Read a word without counting an access (for testing/debug)."""
        self._check_address(address)
        return self._data[address]

    def reset(self) -> None:
        """Clear contents and counters."""
        self._data = [0] * self.depth
        self.counters.reset()

    def _check_address(self, address: int) -> None:
        if not (0 <= address < self.depth):
            raise CapacityError(
                f"{self.name}: address {address} out of range 0..{self.depth - 1}"
            )


class Sram:
    """A byte-capacity SRAM bank with word-granular access counting.

    Used for ``iMemory`` (32 KB) and ``oMemory`` (25 KB).  The functional
    contents are optional: pure performance/energy studies only need the
    counters, while the cycle-level simulator stores actual words.
    """

    def __init__(
        self,
        capacity_bytes: int,
        word_bytes: int = 2,
        name: str = "sram",
        store_contents: bool = False,
    ) -> None:
        if capacity_bytes <= 0:
            raise CapacityError(f"{name}: capacity must be positive, got {capacity_bytes}")
        if word_bytes <= 0:
            raise CapacityError(f"{name}: word_bytes must be positive, got {word_bytes}")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.word_bytes = word_bytes
        self.counters = AccessCounters()
        self._contents: Optional[Dict[int, int]] = {} if store_contents else None

    @property
    def depth(self) -> int:
        """Number of addressable words."""
        return self.capacity_bytes // self.word_bytes

    def read(self, address: int, words: int = 1) -> List[int]:
        """Read ``words`` consecutive words starting at ``address``."""
        self._check_range(address, words)
        self.counters.record_read(words * self.word_bytes, count=words)
        if self._contents is None:
            return [0] * words
        return [self._contents.get(address + i, 0) for i in range(words)]

    def write(self, address: int, values: List[int]) -> None:
        """Write consecutive words starting at ``address``."""
        self._check_range(address, len(values))
        self.counters.record_write(len(values) * self.word_bytes, count=len(values))
        if self._contents is not None:
            for i, value in enumerate(values):
                self._contents[address + i] = int(value)

    def record_stream_read(self, num_words: int) -> None:
        """Account for a streaming read of ``num_words`` words without addressing.

        The analytical traffic model knows how many words move but not their
        addresses; this keeps one code path for both analytical and
        cycle-level use.
        """
        if num_words < 0:
            raise ValueError(f"num_words must be >= 0, got {num_words}")
        self.counters.record_read(num_words * self.word_bytes, count=num_words)

    def record_stream_write(self, num_words: int) -> None:
        """Account for a streaming write of ``num_words`` words without addressing."""
        if num_words < 0:
            raise ValueError(f"num_words must be >= 0, got {num_words}")
        self.counters.record_write(num_words * self.word_bytes, count=num_words)

    def utilization_of(self, working_set_bytes: int) -> float:
        """Fraction of the capacity a working set occupies (may exceed 1.0)."""
        return working_set_bytes / self.capacity_bytes

    def fits(self, working_set_bytes: int) -> bool:
        """True when a working set fits entirely in this SRAM."""
        return working_set_bytes <= self.capacity_bytes

    def reset(self) -> None:
        """Clear counters (and contents when stored)."""
        self.counters.reset()
        if self._contents is not None:
            self._contents = {}

    def _check_range(self, address: int, words: int) -> None:
        if address < 0 or words < 0 or (address + words) > self.depth:
            raise CapacityError(
                f"{self.name}: access [{address}, {address + words}) exceeds depth {self.depth}"
            )
