"""The `walks` workload: seeded pair inputs and the closed-loop client.

Generation runs in its own process, before any timed process starts:

    python3 perfbench/walks.py --seed 7 --degree 8 --per-map 200 --out pairs.jsonl

It samples pairs of the four families with the package's public
enumerators (A for phi, B for chi, C for psi, D for rho): ``--per-map``
pairs each of A, B and C, and one pair from every nonempty D index cell.
It checks every pair with ``validate_pair``, shuffles them and writes one
canonical JSON line (``serialize.dumps``) per pair.  It prints the file's
sha256, so two runs on the same seed can be shown to read identical bytes.

``serve`` is the client: one caller that sends the next pair only after
the previous one came back.  Each pair takes the path of
``kostka involution run`` (parse_object, validate_pair, the map, dumps),
then goes back through the map, and is checked on the way.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time

ALGS = {"A": "phi", "B": "chi", "C": "psi", "D": "rho"}


def sample_pairs(degree: int, per_map: int, seed: int) -> list[str]:
    """Shuffled canonical lines: ``per_map`` distinct valid pairs of each of
    A, B and C, and one pair from each nonempty D index cell."""
    from kostka import serialize as sz
    from kostka.core import compositions_of, partitions_of, perm_inverse
    from kostka.involutions import Pair, enumerate_pairs, validate_pair
    from kostka.tableaux import enumerate_immaculate, enumerate_ssyt
    from kostka.tunnelhooks import TunnelHookCovering, delta_choices

    rng = random.Random(seed)
    comps = compositions_of(degree)
    parts = partitions_of(degree)

    def draw(kind: str):
        # Mirrors the constructions of ``enumerate_pairs``: pick the indices
        # and a covering, then a filling; None when that cell is empty.
        if kind in ("A", "B"):
            labels = comps if kind == "A" else parts
            left, right = rng.choice(labels), rng.choice(labels)
            perm, delta = rng.choice(delta_choices(right))
            if kind == "A":
                fills = enumerate_immaculate(left, delta)
            else:
                inv = perm_inverse(perm)
                reordered = tuple(delta[inv[i] - 1] for i in range(len(right)))
                fills = enumerate_ssyt(left, reordered)
            covering = TunnelHookCovering(right, perm)
        else:
            shape, content = rng.choice(comps), rng.choice(comps)
            perm, _ = rng.choice(delta_choices(shape))
            fills = enumerate_immaculate(shape, content)
            covering = TunnelHookCovering(shape, perm)
        if not fills:
            return None
        return Pair(kind, covering, rng.choice(fills))

    lines: list[str] = []
    for kind in "ABC":
        seen: set[str] = set()
        while len(seen) < per_map:
            pair = draw(kind)
            if pair is None:
                continue
            line = sz.dumps(pair)
            if line not in seen:
                seen.add(line)
                lines.append(line)
    # One rho pair per nonempty D cell: every process then builds the same
    # E sets in rho's step cap, and the seed only picks which pair walks.
    for lam in parts:
        for mu in parts:
            cell = enumerate_pairs("D", lam, mu)
            if cell:
                lines.append(sz.dumps(rng.choice(cell)))
    for line in lines:
        validate_pair(sz.loads(line))  # raises on a generator bug
    rng.shuffle(lines)
    return lines


def write_pairs(path: str, lines: list[str]) -> str:
    data = "".join(line + "\n" for line in lines).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def serve(objs: list, clock=time.perf_counter) -> dict:
    """Run every pair through its map and back; return latencies and checks.

    Latencies are read on ``clock`` (the benchmark passes its paced clock).
    Functions are looked up on their modules at each call, so wrappers
    installed by the tracer are seen.
    """
    import kostka.involutions as inv
    import kostka.serialize as sz

    latencies: dict[str, list[float]] = {alg: [] for alg in ALGS.values()}
    failures: list[str] = []
    fixed = 0

    def apply(alg, pair):
        if alg == "rho":
            return inv.rho(pair)[0]
        return getattr(inv, alg)(pair)

    for number, obj in enumerate(objs):
        t0 = clock()
        alg = ALGS.get(obj.get("setKind"), "?") if isinstance(obj, dict) else "?"
        try:
            pair = sz.parse_object(obj)
            if alg == "?":
                raise ValueError("pair is not of family A, B, C or D")
            left, right = inv.validate_pair(pair)
            image = apply(alg, pair)
            sz.dumps(image)
            back = apply(alg, image)
            problem = None
            if back != pair:
                problem = "not an involution"
            elif image == pair:
                fixed += 1
                if left != right:
                    problem = "off-diagonal fixed point"
                elif pair.thc.sign() != 1:
                    problem = "fixed point of negative sign"
            elif image.thc.sign() != -pair.thc.sign():
                problem = "sign not reversed"
            if problem is None and (
                image.kind != pair.kind or inv.validate_pair(image) != (left, right)
            ):
                problem = "image left its pair set"
        except (ValueError, RuntimeError, KeyError, TypeError) as err:
            problem = f"{type(err).__name__}: {err}"
        t1 = clock()
        if problem is None:
            latencies[alg].append((t1 - t0) * 1000.0)
        else:
            failures.append(f"line {number + 1} ({alg}): {problem}")
    return {
        "attempted": len(objs),
        "failed": len(failures),
        "failures": failures[:5],
        "fixed": fixed,
        "latency_ms": latencies,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--per-map", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    lines = sample_pairs(args.degree, args.per_map, args.seed)
    print(write_pairs(args.out, lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
