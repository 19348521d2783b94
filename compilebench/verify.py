"""Output checks, run outside every timed region.

A mapping passes when :func:`repro.core.validation.validate_mapping`
finds no violation and its cycle-level replay
(:func:`repro.sim.run_and_compare`) matches the sequential reference
interpreter. Verdicts are memoised per distinct output: an identical
mapping of the same cell gets the same verdict without a second replay.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Optional

ITERATIONS = 8


class Checker:
    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._verdicts: Dict[tuple, Optional[str]] = {}

    def _memory(self, program):
        from repro.sim.machine import DataMemory

        memory = DataMemory()
        if program is not None:
            rng = random.Random(self._seed)
            for name, size in sorted(program.arrays.items()):
                memory.declare(name, size,
                               [rng.randrange(256) for _ in range(size)])
        return memory

    def mapping(self, cell: str, mapping, program=None) -> Optional[str]:
        """``None`` if ``mapping`` is valid and replays correctly, else why.

        ``program`` is the front-end :class:`ExtractedProgram` of a kernel
        cell, already rebound to the optimized graph; its arrays get seeded
        contents and its loop-carried initial values are honoured.
        """
        fingerprint = (cell, mapping.ii,
                       tuple(sorted(mapping.schedule.start_times.items())),
                       tuple(sorted(mapping.placement.items())))
        if fingerprint not in self._verdicts:
            self._verdicts[fingerprint] = self._check(mapping, program)
        return self._verdicts[fingerprint]

    def mapping_dict(self, cell: str, data: dict) -> Optional[str]:
        """Check a serialised mapping (CLI ``--json`` file, daemon record)."""
        from repro.core.mapping import Mapping

        fingerprint = (cell, json.dumps(data, sort_keys=True))
        if fingerprint not in self._verdicts:
            try:
                mapping = Mapping.from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                self._verdicts[fingerprint] = f"unreadable mapping: {exc!r}"
            else:
                self._verdicts[fingerprint] = self._check(mapping, None)
        return self._verdicts[fingerprint]

    def _check(self, mapping, program) -> Optional[str]:
        from repro.core.validation import validate_mapping
        from repro.sim.executor import run_and_compare

        violations = validate_mapping(mapping)
        if violations:
            return f"invalid mapping: {violations[0]}"
        iterations = ITERATIONS
        kwargs = {}
        if program is not None:
            iterations = min(ITERATIONS, max(program.trip_count, 1))
            kwargs = {"initial_values": program.initial_values,
                      "loop_start": program.loop_start}
        try:
            run_and_compare(mapping, iterations=iterations,
                            memory=self._memory(program), **kwargs)
        except Exception as exc:  # any replay error is a failed check
            return f"replay mismatch: {exc}"
        return None
