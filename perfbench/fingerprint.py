"""Golden run fingerprints: the merge sequence plus IEEE distance bits.

A fingerprint pins one summarization run to a fixed truth.  Merges are
written as the base members of each merged part, so the fingerprint does
not depend on the counter suffixes of minted summary names (a rehydrated
PROX session re-mints them from 1); distances are written as the hex of
their IEEE-754 bit patterns, so any drift in the last bit shows.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from typing import Dict, Iterable, List


def float_bits(value: float) -> str:
    """The IEEE-754 binary64 bit pattern of ``value`` as 16 hex digits."""
    return struct.pack(">d", float(value)).hex()


def _part_key(members: Iterable[str]) -> str:
    return "+".join(sorted(members))


def merge_key(parts_members: Iterable[Iterable[str]]) -> str:
    """One step's merge: its parts' base members, order-free."""
    return "|".join(sorted(_part_key(members) for members in parts_members))


def of_result(result) -> Dict[str, object]:
    """Fingerprint of an in-process :class:`SummarizationResult`."""
    universe = result.universe
    steps: List[List[str]] = []
    for record in result.steps:
        merged = merge_key(universe[name].base_members() for name in record.merged)
        steps.append([merged, float_bits(record.distance_after.normalized)])
    return {
        "steps": steps,
        "final_size": result.final_size,
        "final_distance": float_bits(result.final_distance.normalized),
    }


_MINTED = re.compile(r"#\d+$")


def of_response(payload: Dict[str, object]) -> Dict[str, object]:
    """Fingerprint of a ``/summarize`` response body.

    The response names merged parts, not their members.  Counter-minted
    summary names (``label#k``) are renumbered by first appearance, since
    ``k`` counts every summary the session's universe ever minted;
    content-addressed equivalence summaries (``label~digest``) and base
    annotations keep their names.
    """
    renamed: Dict[str, str] = {}

    def canonical(name: str) -> str:
        if not _MINTED.search(name):
            return name
        if name not in renamed:
            renamed[name] = _MINTED.sub(f"#{len(renamed) + 1}", name)
        return renamed[name]

    steps: List[List[str]] = []
    for record in payload["steps_detail"]:
        merged = "|".join(canonical(name) for name in record["merged"])
        steps.append([merged, float_bits(record["distance_after"])])
    return {
        "steps": steps,
        "final_size": payload["size"],
        "final_distance": float_bits(payload["distance"]),
    }


def summarize_payload(result) -> Dict[str, object]:
    """The fields of a ``/summarize`` response :func:`of_response` reads,
    built from an in-process result."""
    return {
        "steps_detail": [
            {
                "merged": list(record.merged),
                "distance_after": record.distance_after.normalized,
            }
            for record in result.steps
        ],
        "size": result.final_size,
        "distance": result.final_distance.normalized,
    }


def digest(fingerprint: Dict[str, object]) -> str:
    """A short stable digest of a fingerprint (for log lines)."""
    blob = json.dumps(fingerprint, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
