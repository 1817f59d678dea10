"""The run directory's per-(link, interval) table: the one layout of
`features.csv`, `outcome.csv`, `plan.csv` and `dataset/pairs.csv`.  The header
`[lead,...,]link_id,t,<plane>,...` heads one row per (link, interval),
link-major, t from 1.  Int and bool planes are written as ints, float planes
as `repr(float)`, so values read back bit for bit.  Lead columns (`pairs.csv`'s
`pair_id,scenario,seed`) stack K blocks of L * T rows that repeat them."""

from __future__ import annotations

import numpy as np

# text -> value; a bool is written as 0 or 1 and nothing else reads as one
_PARSE = {float: float, int: np.int64, str: str, bool: {"0": False, "1": True}.__getitem__}


class TableError(ValueError):
    """A table that does not parse or does not fill its (link, t) grid."""


def write_table(path, planes: dict, lead: dict | None = None) -> None:
    """Write named (L, T) planes; with lead columns the planes are (K, L, T)
    and each lead column holds one value per block."""
    lead = lead or {}
    arrays = [a if a.dtype.kind == "f" else a.astype(np.int64)
              for a in map(np.asarray, planes.values())]
    *blocks, L, T = shape = arrays[0].shape
    if (any(a.shape != shape for a in arrays)
            or set(blocks) != {len(v) for v in lead.values()}):
        raise ValueError("planes need one (L, T) shape, or (K, L, T) and K lead values")
    cells = [f"{l},{t}" for l in range(L) for t in range(1, T + 1)]
    heads = ["".join(f"{v}," for v in block) for block in zip(*lead.values())] or [""]
    with open(path, "w") as fh:
        fh.write(",".join([*lead, "link_id", "t", *planes]) + "\n")
        for k, head in enumerate(heads):        # one (L, T) block at a time
            columns = [[head + cell for cell in cells]]
            columns += [list(map(repr, a.reshape(len(heads), -1)[k].tolist())) for a in arrays]
            fh.write("".join(",".join(row) + "\n" for row in zip(*columns)))


def read_table(path, planes: dict, lead: dict | None = None,
               shape: tuple[int, int] | None = None) -> dict:
    """Read a table `write_table` wrote: `planes` and `lead` map column names
    to float, int, bool or str.  Planes come back (L, T), or (K, L, T) with
    lead columns, whose values come back one per block.  (L, T) is `shape`,
    else the largest link_id + 1 and t.  A TableError names the `file:line` of
    a wrong header, a malformed value, or a missing or misplaced (link, t)."""
    lead = lead or {}
    kinds = {**lead, "link_id": int, "t": int, **planes}
    # lead ints are Python ints (seeds span uint64); the rest must fit int64
    parse = [int if k is int and name in lead else _PARSE[k] for name, k in kinds.items()]
    cols = [[] for _ in kinds]
    with open(path) as fh:
        if fh.readline().rstrip("\n").split(",") != list(kinds):
            raise TableError(f"{path}:1: header must be {','.join(kinds)}")
        for no, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(kinds):
                raise TableError(f"{path}:{no}: {len(fields)} fields, not {len(kinds)}")
            for col, read, text, (name, kind) in zip(cols, parse, fields, kinds.items()):
                try:
                    col.append(read(text))
                except (LookupError, ValueError, OverflowError):
                    raise TableError(f"{path}:{no}: {name} is not {kind.__name__}: "
                                     f"{text!r}") from None
    cols = {name: np.array(col, dtype=object if name in lead else kind)
            for col, (name, kind) in zip(cols, kinds.items())}
    link, t, n = cols["link_id"], cols["t"], len(cols["t"])
    L, T = shape or (int(link.max(initial=0)) + 1, int(t.max(initial=1)))
    r = np.arange(n if lead else min(n, L * T))
    want_link, want_t = r % (L * T) // T, r % T + 1
    if (bad := np.flatnonzero((link[r] != want_link) | (t[r] != want_t))).size:
        i = bad[0]
        raise TableError(f"{path}:{i + 2}: link_id {link[i]}, t {t[i]} where a {L} x {T} "
                         f"table has link_id {want_link[i]}, t {want_t[i]}")
    if (n % (L * T) if lead else n != L * T):
        raise TableError(f"{path}:{(n if lead else min(n, L * T)) + 2}: {n} rows do not "
                         f"fill {'blocks of ' if lead else ''}{L} links x {T} intervals")
    out = {name: cols[name].reshape((-1, L, T) if lead else (L, T)) for name in planes}
    for name in lead:
        block = cols[name].reshape(-1, L * T)
        if (bad := np.flatnonzero(block != block[:, :1])).size:
            raise TableError(f"{path}:{bad[0] + 2}: {name} changes inside a block")
        out[name] = block[:, 0].tolist()
    return out
