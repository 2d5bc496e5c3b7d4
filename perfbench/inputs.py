"""The seeded edge file of the benchmark workloads.

The generator here does not import tempcore, so a change to the program
cannot change the benchmark's input; the file is pinned by its SHA-256 and
written to perfbench/inputs/ (ignored by git) on first use.

    python3 perfbench/inputs.py        # (re)generate and verify the input
"""

from __future__ import annotations

import hashlib
import os
import random
from pathlib import Path

INPUT = Path(__file__).resolve().parent / "inputs" / "burst.txt"
SEED = 20240
SHA256 = "25a593a338bc0928f9f40bf587c8f9059cfe3a087a4ed6a06354cbcbb132a9d9"


def burst_triples(seed: int, timestamps: int = 10_000, burst_every: int = 40,
                  burst_width: int = 2, clique: int = 18,
                  target_edges: int = 100_000) -> list[tuple[int, int, int]]:
    """Planted 18-cliques every 40 timestamps over a degree-2 ring.

    Draws the same random sequence, in the same order, as
    tempcore.synth.burst_graph, so the parsed file is the graph of the
    acceptance suite's criterion 8 with identical vertex numbering.
    """
    rng = random.Random(seed)
    triples = []
    next_vertex = 0
    for anchor in range(1, timestamps - burst_width + 1, burst_every):
        base = next_vertex
        next_vertex += clique
        for i in range(clique):
            for j in range(i + 1, clique):
                triples.append((base + i, base + j,
                                rng.randint(anchor, anchor + burst_width)))
    ring = target_edges - len(triples)
    base = next_vertex
    for i in range(ring):
        triples.append((base + i, base + (i + 1) % ring, rng.randint(1, timestamps)))
    return triples


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_path(regenerate: bool = False) -> Path:
    """Path of the verified input file, generating it when missing or stale."""
    if not regenerate and INPUT.exists() and _digest(INPUT) == SHA256:
        return INPUT
    INPUT.parent.mkdir(exist_ok=True)
    text = "".join(f"{u} {v} {t}\n" for u, v, t in burst_triples(SEED))
    tmp = INPUT.with_suffix(".tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, INPUT)
    digest = _digest(INPUT)
    if digest != SHA256:
        raise RuntimeError(f"{INPUT}: generated content has SHA-256 {digest}, "
                           f"expected {SHA256}")
    return INPUT


if __name__ == "__main__":
    print(input_path(regenerate=True))
