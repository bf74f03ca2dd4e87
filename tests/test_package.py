from types import ModuleType

import stablesq


def test_all_lists_exactly_the_public_names():
    # a name retired from one of the two lists must leave the other too
    bound = {
        name
        for name, value in vars(stablesq).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(stablesq.__all__) == bound
