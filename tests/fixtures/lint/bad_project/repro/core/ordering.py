"""Fixture: hash-order leaks, id()-keyed dict, load-bearing assert."""


def leak_order(labels: frozenset) -> list:
    pool = set(labels)
    return list(pool)


def leak_comprehension(index: dict, keys: list) -> list:
    hosts: set[str] = set()
    for key in keys:
        hosts |= index.get(key, set())
    return [index[name] for name in hosts if name in index]


def sorted_comprehension(index: dict, keys: list) -> list:
    ordered: set[str] = set(keys)
    return [index[name] for name in sorted(ordered)]


def id_key(element: object, table: dict) -> None:
    table[id(element)] = element


def checked(count: int) -> int:
    assert count >= 0
    return count
