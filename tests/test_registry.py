"""The query registry is pinned: the same 281 names (279 oracled) as
before the derived table, every q_<name> in queries.py paired with its
SQL_<NAME>, and the driver contract reading the one merged view. No Ray:
nothing here runs a query."""

import ast
import fnmatch
import hashlib
import inspect
import pathlib

import __ray_entry__
from ptt_spider_go_ray import queries as Q
from ptt_spider_go_ray.registry import oracle_sql, queries

NAMES_SHA256 = "208d8619d7305bb4675ab1facd813d04ecc80be67e8383f4964d5d1d356da19e"


def test_registry_names_pinned():
    names = sorted(queries())
    assert len(names) == 281
    assert len(oracle_sql()) == 279
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == NAMES_SHA256


def test_every_q_has_its_sql_and_is_registered():
    tree = ast.parse(inspect.getsource(Q))
    fns = {n.name[2:] for n in tree.body
           if isinstance(n, ast.FunctionDef) and n.name.startswith("q_")}
    sqls = {t.id[4:].lower() for n in tree.body if isinstance(n, ast.Assign)
            for t in n.targets
            if isinstance(t, ast.Name) and t.id.startswith("SQL_")}
    assert fns <= sqls, sorted(fns - sqls)  # every q_* has its SQL_*
    assert set(Q.QUERIES) == fns  # every q_*/SQL_* pair is registered
    for name, (fn, sql) in Q.QUERIES.items():
        assert fn is getattr(Q, f"q_{name}")
        assert sql == getattr(Q, f"SQL_{name.upper()}")


def test_ray_entry_reads_the_registry_view():
    assert __ray_entry__.queries().keys() == queries().keys()
    assert __ray_entry__.oracle_sql().keys() == oracle_sql().keys()


def _calls(node, name):
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
        or isinstance(n, ast.Attribute) and n.attr == name
        for n in ast.walk(node)
    )


def _takes_all(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take_all")


def _extremes(node) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id in ("min", "max") for n in ast.walk(node))


def _extreme_of_pull(node) -> bool:
    """``min(… for r in ….take_all())`` (or ``max``, or over a list)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max") and bool(node.args)
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            and any(_takes_all(g.iter) for g in node.args[0].generators))


def _hand_fold_loop(loop: ast.For) -> bool:
    """``for r in ….take_all():`` whose body takes a ``min``/``max``, or
    only accumulates ``int(r[…])`` per key (a subscript store or
    ``setdefault``), with no other call."""
    if not (_takes_all(loop.iter) and isinstance(loop.target, ast.Name)):
        return False
    if any(_extremes(s) for s in loop.body):
        return True
    body = [n for s in loop.body for n in ast.walk(s)]
    calls = [n for n in body if isinstance(n, ast.Call)]
    only_folds = all(
        isinstance(c.func, ast.Name) and c.func.id in ("int", "enumerate")
        or isinstance(c.func, ast.Attribute) and c.func.attr in ("setdefault", "get")
        for c in calls
    )
    reads_row = any(
        isinstance(c.func, ast.Name) and c.func.id == "int" and c.args
        and isinstance(c.args[0], ast.Subscript)
        and isinstance(c.args[0].value, ast.Name) and c.args[0].value.id == loop.target.id
        for c in calls
    )
    keyed = any(
        isinstance(t, ast.Subscript)
        for n in body if isinstance(n, (ast.Assign, ast.AugAssign))
        for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
    ) or _calls(loop, "setdefault")
    return only_folds and reads_row and keyed


def _pandas_merges(fn: ast.FunctionDef) -> list[int]:
    """Lines where a ``to_pandas()`` pull of partials (directly, or through a
    name assigned from it) goes into ``.groupby(…)`` and a sum, min or max
    (or an ``.agg`` of only those). A pull of a Ray ``aggregate`` is already
    merged and does not count."""
    assigned: dict[str, list] = {}
    for n in ast.walk(fn):
        if (isinstance(n, ast.Assign) and len(n.targets) == 1
                and isinstance(n.targets[0], ast.Name)):
            assigned.setdefault(n.targets[0].id, []).append(n.value)
    out = []
    for n in ast.walk(fn):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("sum", "min", "max", "agg") and _fold_only(n)):
            continue
        x = n.func.value
        while isinstance(x, (ast.Call, ast.Subscript, ast.Attribute)):
            if (isinstance(x, ast.Call) and isinstance(x.func, ast.Attribute)
                    and x.func.attr == "groupby"):
                r = x.func.value
                for v in assigned.get(r.id, []) if isinstance(r, ast.Name) else [r]:
                    if (isinstance(v, ast.Call) and isinstance(v.func, ast.Attribute)
                            and v.func.attr == "to_pandas"
                            and not (isinstance(v.func.value, ast.Call)
                                     and isinstance(v.func.value.func, ast.Attribute)
                                     and v.func.value.func.attr == "aggregate")):
                        out.append(n.lineno)
                break
            x = x.func if isinstance(x, ast.Call) else x.value
    return out


def _hand_probes(fn: ast.FunctionDef) -> list[int]:
    """Lines where a sorted-key probe is written by hand: ``a[i] == q`` with
    ``i`` (or an expression over it) taken from ``np.searchsorted``."""
    def has_ss(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "searchsorted"
                   for n in ast.walk(node))

    pos = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign) and has_ss(n.value)
           for t in n.targets if isinstance(t, ast.Name)}
    out = []
    for n in ast.walk(fn):
        if not (isinstance(n, ast.Compare) and any(isinstance(o, ast.Eq) for o in n.ops)):
            continue
        for side in [n.left, *n.comparators]:
            if isinstance(side, ast.Subscript) and (
                    has_ss(side.slice) or any(isinstance(x, ast.Name) and x.id in pos
                                              for x in ast.walk(side.slice))):
                out.append(n.lineno)
    return out


_FOLD_AGGS = {"sum", "size", "count", "min", "max"}


def _fold_only(call: ast.Call) -> bool:
    """A pandas ``.sum()``/``.size()``/``.min()``/``.max()``, or an
    ``.agg(…)`` whose every aggregation is a sum, count, min or max."""
    name = call.func.attr
    if name != "agg":
        return name in _FOLD_AGGS
    funcs = [a.value for a in call.args if isinstance(a, ast.Constant)] + [
        e.value for k in call.keywords if isinstance(k.value, ast.Tuple)
        for e in k.value.elts[1:] if isinstance(e, ast.Constant)]
    return set(funcs) <= _FOLD_AGGS


def _grouped_sum(expr, assigned, seen=frozenset()) -> bool:
    """``expr`` (or a name it was assigned from) is a pandas ``groupby(…)``
    whose aggregation only sums, counts, or takes mins and maxes."""
    if isinstance(expr, ast.Name):
        seen |= {expr.id}
    for x in assigned.get(expr.id, []) if isinstance(expr, ast.Name) else [expr]:
        agg = None  # the call nearest the groupby is its aggregation
        while isinstance(x, (ast.Call, ast.Subscript, ast.Attribute)):
            if isinstance(x, ast.Call) and isinstance(x.func, ast.Attribute):
                if x.func.attr == "groupby":
                    if agg is not None and _fold_only(agg):
                        return True
                    break
                agg = x
            x = x.func if isinstance(x, ast.Call) else x.value
        else:
            if isinstance(x, ast.Name) and x.id not in seen and _grouped_sum(x, assigned, seen):
                return True
    return False


def _hand_partials(fn: ast.FunctionDef) -> list[int]:
    """Lines where a combiner partial is written by hand: a nested UDF
    returns ``_arrow_out(…)``/``pa.Table.from_pandas(…)`` of a pandas
    groupby that only sums, counts, or takes mins and maxes, or an Arrow
    ``group_by(…).aggregate`` asks only for those."""
    out = []
    for sub in ast.walk(fn):
        if sub is fn or not isinstance(sub, ast.FunctionDef):
            continue
        assigned: dict[str, list] = {}
        for n in ast.walk(sub):
            if (isinstance(n, ast.Assign) and len(n.targets) == 1
                    and isinstance(n.targets[0], ast.Name)):
                assigned.setdefault(n.targets[0].id, []).append(n.value)
        for n in ast.walk(sub):
            f = n.value.func if isinstance(n, ast.Return) and isinstance(n.value, ast.Call) else None
            if (f is not None and n.value.args
                    and (isinstance(f, ast.Name) and f.id == "_arrow_out"
                         or isinstance(f, ast.Attribute) and f.attr == "from_pandas")
                    and _grouped_sum(n.value.args[0], assigned)):
                out.append(n.lineno)
    for n in ast.walk(fn):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "aggregate" and isinstance(n.func.value, ast.Call)
                and isinstance(n.func.value.func, ast.Attribute)
                and n.func.value.func.attr == "group_by"):
            funcs = [e.elts[1].value for a in n.args if isinstance(a, ast.List)
                     for e in a.elts if isinstance(e, ast.Tuple) and len(e.elts) > 1
                     and isinstance(e.elts[1], ast.Constant)]
            if set(funcs) <= _FOLD_AGGS:
                out.append(n.lineno)
    return sorted(set(out))


def _ray_extremes(fn: ast.FunctionDef) -> list[int]:
    """Lines that build a Ray ``Min``/``Max`` aggregate."""
    return [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id in ("Min", "Max")]


def test_query_kernels_have_no_hand_copies():
    """The key-bucket tag, the Parquet footer row count, the per-batch
    combiner partial (sums, counts, mins and maxes), the merge of combiner
    partials, the Ray Min/Max aggregate and the sorted-key probe each live
    in one kernel (``_by_key_bucket``, ``_rows``, ``_partial``, ``_fold``,
    ``_combine``, ``_probe``); no q_* writes its own copy. One
    bound picks every broadcast-or-distributed plan: no ``broadcast_max``
    parameter anywhere, one ``*B*CAST_MAX*`` name, and no ``ray.ObjectRef``
    fork in a broadcast UDF."""
    tree = ast.parse(inspect.getsource(Q))
    tags, footers, loops, merges, probes, forks, partials, extremes = ([] for _ in range(8))
    bounds = [t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
              if isinstance(t, ast.Name) and fnmatch.fnmatchcase(t.id, "*B*CAST_MAX*")]
    assert bounds == ["_BROADCAST_MAX_BYTES"], bounds
    pkg = pathlib.Path(Q.__file__).parent
    params = [f"{path.name}:{f.name}" for path in sorted(pkg.rglob("*.py"))
              for f in ast.walk(ast.parse(path.read_text()))
              if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              for a in f.args.args + f.args.kwonlyargs if a.arg == "broadcast_max"]
    assert params == [], params
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name != "_fold":
            merges += [f"{fn.name}:{ln}" for ln in _pandas_merges(fn)]
        if fn.name != "_probe":
            probes += [f"{fn.name}:{ln}" for ln in _hand_probes(fn)]
        if fn.name != "_partial":
            partials += [f"{fn.name}:{ln}" for ln in _hand_partials(fn)]
        if fn.name != "_combine":
            extremes += [f"{fn.name}:{ln}" for ln in _ray_extremes(fn)]
        forks += [f"{fn.name}:{n.lineno}" for n in ast.walk(fn)
                  if isinstance(n, ast.Attribute) and n.attr == "ObjectRef"]
        for n in ast.walk(fn):
            if fn.name.startswith("q_") and (isinstance(n, ast.For) and _hand_fold_loop(n)
                                             or _extreme_of_pull(n)):
                loops.append(f"{fn.name}:{n.lineno}")
            if (fn.name.startswith("q_") and isinstance(n, ast.FunctionDef)
                    and n.name == "tag" and len(n.body) == 2
                    and _calls(n, "_bucket_of") and _calls(n, "append_column")):
                tags.append(fn.name)
            if (fn.name != "_rows" and isinstance(n, ast.Attribute)
                    and n.attr == "num_rows"
                    and isinstance(n.value, ast.Attribute)
                    and n.value.attr == "metadata"
                    and _calls(n.value.value, "ParquetFile")):
                footers.append(fn.name)
    assert tags == [], tags
    assert footers == [], footers
    assert loops == [], loops
    assert merges == [], merges
    assert probes == [], probes
    assert forks == [], forks
    assert partials == [], partials
    assert extremes == [], extremes
