import types

import nopolock


def test_all_names_resolve_and_none_is_a_module():
    assert len(nopolock.__all__) == len(set(nopolock.__all__))
    for name in nopolock.__all__:
        value = getattr(nopolock, name)
        assert not isinstance(value, types.ModuleType), name

