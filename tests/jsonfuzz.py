"""Hypothesis helpers for decoder properties: arbitrary JSON, one mutation.

Every wire and disk decoder in the package shares one contract: a
well-formed payload with any single value replaced by arbitrary JSON
either decodes or fails with a typed ``repro.errors`` error. The
strategies here build those inputs.
"""

from hypothesis import strategies as st

#: JSON scalars, including the non-finite floats ``json.loads`` accepts.
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6)
)

#: Arbitrary (small) JSON values.
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def paths(obj, prefix=()):
    """Every location in a JSON value, the root included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from paths(value, prefix + (key,))


def replaced(obj, path, value):
    """A copy of ``obj`` with the location ``path`` set to ``value``."""
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = replaced(obj[path[0]], path[1:], value)
    return copy


@st.composite
def mutated(draw, valid):
    """A payload drawn from ``valid`` with one location replaced by JSON."""
    obj = draw(valid)
    path = draw(st.sampled_from(list(paths(obj))))
    return replaced(obj, path, draw(json_values))
