"""Seeded inputs and the operations of the benchmark's workloads.

Every input is a problem document (JSON bytes) built here from the run seed;
exactsdp sees nothing but those bytes.  An operation feeds its documents to
exactsdp the way the command-line front end does:

    pipeline:  bytes -> docio.parse_problem -> run_pipeline
               -> docio.verdict_doc -> docio.serialize
    solve:     bytes -> docio.parse_problem -> sdp.solve(relaxation_problem)
               -> docio.sdp_doc -> docio.serialize

Functions are looked up on their modules at call time, so the wrappers that
the traced run installs are the ones called.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

# dense-relax: a fixed base set of relaxations; the run seed rotates them
RELAX_N = 30
RELAX_M = 60
RELAX_COUNT = 4
RELAX_TRACE = 0.2          # <B, I> / n of every member: I/n is strictly feasible
RELAX_BASE_SEED = 20240911

# ball-family: Example 6.2, disks of radius 1/2 centred on the integer grid
BALL_BOX = ((-2, 2), (-2, 2))
BALL_RADIUS = "0.5"

# reduce-refute: a batch of rotated Example 6.1 instances and embedded disk pairs
BATCH_PAIRS = 4            # the batch holds BATCH_PAIRS instances of each kind
DISK_RADIUS = 0.5
DISK_GAP = (0.3, 0.7)      # centre distance, below the 2r that makes disks overlap

# Example 6.1 of the paper: A, B, C in S^4, objective diag(1, -1, 0, 0)
EX61_MEMBERS = (
    ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    ((-1, -2, 0, -1), (-2, -1, 0, 0), (0, 0, 1, -1), (-1, 0, -1, -1)),
    ((1, 2, 0, 1), (2, 1, 0, 0), (0, 0, -3, 2), (1, 0, 2, -1)),
)
EX61_OBJECTIVE = (1.0, -1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Item:
    kind: str      # ball | dense | ex61 | disks; selects the path and the check
    doc: bytes     # the problem document


@dataclass(frozen=True)
class Workload:
    name: str
    path: str      # "pipeline" or "solve"
    ops: tuple     # one round: a tuple of operations, each a tuple of Items
    warmup: tuple  # operations run once before timing


# --------------------------------------------------------------------------
# document building
# --------------------------------------------------------------------------

def _upper(a) -> dict:
    a = np.asarray(a, dtype=float)
    rows, cols = np.triu_indices(a.shape[0])
    return {"upper": [repr(float(v)) for v in a[rows, cols]]}


def _identity(n: int) -> dict:
    return {"upper": ["1" if i == j else "0" for i in range(n) for j in range(i, n)]}


def _document(n, q, members, tol, restrict=None) -> bytes:
    doc = {
        "schema_version": 1,
        "n": n,
        "Q": _upper(q),
        "H": _identity(n),
        "constraints": [{"matrix": _upper(m)} for m in members],
        "options": {"tol": tol, "seed": 0},
    }
    if restrict is not None:
        doc["restrict_matrix"] = {"cols": restrict.shape[1],
                                  "entries": [repr(float(v)) for v in restrict.ravel()]}
    return json.dumps(doc).encode()


def _symmetric(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def disk_matrix(center, radius: float) -> np.ndarray:
    """q(u, z) = |u - t z|^2 - r^2 z^2: the outside of the disk."""
    t = np.asarray(center, dtype=float)
    n = t.size + 1
    a = np.eye(n)
    a[:-1, -1] = -t
    a[-1, :-1] = -t
    a[-1, -1] = float(t @ t) - radius * radius
    return a


def ball_document(seed: int, box=BALL_BOX) -> bytes:
    """The disk family as a ball_grid family, with a seeded random objective."""
    q = _symmetric(np.random.default_rng([seed, 1]), 3)
    doc = {
        "schema_version": 1,
        "n": 3,
        "Q": _upper(q),
        "H": _identity(3),
        "constraints": [{"family": {"kind": "ball_grid",
                                    "center_box": [list(b) for b in box],
                                    "radius": BALL_RADIUS}}],
        "options": {"tol": "1e-8", "seed": 0},
    }
    return json.dumps(doc).encode()


def relax_base(k: int):
    """Base relaxation k: indefinite members with trace RELAX_TRACE * n."""
    rng = np.random.default_rng([RELAX_BASE_SEED, k])
    n = RELAX_N
    members = []
    for _ in range(RELAX_M):
        b = _symmetric(rng, n)
        b += np.eye(n) * (RELAX_TRACE - np.trace(b) / n)
        members.append(b)
    return _symmetric(rng, n), members


def relax_document(seed: int, k: int) -> bytes:
    """Base relaxation k under a seeded orthogonal congruence.

    A congruence maps the relaxation onto an equivalent one, so the seed
    changes every number of the document but not the work of solving it.
    """
    q, members = relax_base(k)
    u = _orthogonal(np.random.default_rng([seed, 2, k]), RELAX_N)
    return _document(RELAX_N, u.T @ q @ u, [u.T @ b @ u for b in members], "1e-8")


def ex61_document(rng) -> bytes:
    """Example 6.1 under a random orthogonal congruence x = U y."""
    u = _orthogonal(rng, 4)
    members = [u.T @ np.array(m, dtype=float) @ u for m in EX61_MEMBERS]
    return _document(4, u.T @ np.diag(EX61_OBJECTIVE) @ u, members, "1e-9")


def disks_document(rng) -> bytes:
    """Two overlapping disks in S^3, embedded in S^4 through range(L)."""
    c1 = rng.uniform(-1.0, 1.0, 2)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c2 = c1 + rng.uniform(*DISK_GAP) * np.array([math.cos(theta), math.sin(theta)])
    lmat = _orthogonal(rng, 4)[:, :3]
    members = [lmat @ disk_matrix(c, DISK_RADIUS) @ lmat.T for c in (c1, c2)]
    q = lmat @ _symmetric(rng, 3) @ lmat.T
    return _document(4, q, members, "1e-8", restrict=lmat)


def reduce_refute_batch(seed: int):
    rng = np.random.default_rng([seed, 3])
    items = []
    for _ in range(BATCH_PAIRS):
        items.append(Item("ex61", ex61_document(rng)))
        items.append(Item("disks", disks_document(rng)))
    return tuple(items)


def build(name: str, seed: int) -> Workload:
    if name == "ball-family":
        return Workload(name, "pipeline",
                        ops=((Item("ball", ball_document(seed)),),),
                        warmup=((Item("ball", ball_document(seed, ((-1, 1), (-1, 1)))),),))
    if name == "dense-relax":
        ops = tuple((Item("dense", relax_document(seed, k)),) for k in range(RELAX_COUNT))
        return Workload(name, "solve", ops=ops, warmup=ops[:1])
    if name == "reduce-refute":
        batch = reduce_refute_batch(seed)
        return Workload(name, "pipeline", ops=(batch,), warmup=(batch,))
    raise ValueError("unknown workload %r" % (name,))


NAMES = ("ball-family", "dense-relax", "reduce-refute")


# --------------------------------------------------------------------------
# the operations
# --------------------------------------------------------------------------

def _modules():
    return (sys.modules["exactsdp.docio"], sys.modules["exactsdp.pipeline"],
            sys.modules["exactsdp.sdp"])


def pipeline_path(raw: bytes) -> str:
    docio, pipeline, _ = _modules()
    problem, opts = docio.parse_problem(raw)
    cfg = pipeline.PipelineConfig(tol=opts["tol"], cert_tol=opts["tol"], seed=opts["seed"])
    return docio.serialize(docio.verdict_doc(pipeline.run_pipeline(problem, cfg)))


def solve_path(raw: bytes) -> str:
    docio, _, sdp = _modules()
    problem, opts = docio.parse_problem(raw)
    sol = sdp.solve(sdp.relaxation_problem(problem), tol=opts["tol"])
    return docio.serialize({"schema_version": docio.SCHEMA_VERSION, "command": "solve",
                            "sdp": docio.sdp_doc(sol)})


def run_op(workload: Workload, op) -> list:
    """Run one operation; returns the result documents, one per item."""
    path = pipeline_path if workload.path == "pipeline" else solve_path
    return [path(item.doc) for item in op]
