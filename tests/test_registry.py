"""The query registry is pinned: the same 281 names (279 oracled) as
before the derived table, every q_<name> in queries.py paired with its
SQL_<NAME>, and the driver contract reading the one merged view. No Ray:
nothing here runs a query."""

import ast
import hashlib
import inspect

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


def test_query_kernels_have_no_hand_copies():
    """The key-bucket tag and the Parquet footer row count each live in one
    kernel (``_by_key_bucket``, ``_rows``); no q_* writes its own copy."""
    tree = ast.parse(inspect.getsource(Q))
    tags, footers = [], []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for n in ast.walk(fn):
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
