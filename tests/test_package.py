import types

import lightcone


def test_all_lists_public_names_not_submodules():
    exported = {name: getattr(lightcone, name) for name in lightcone.__all__}
    assert not [n for n, v in exported.items() if isinstance(v, types.ModuleType)]
    for name in ("boost", "cones", "generate", "minkowski", "radar", "recover"):
        assert name not in exported
    assert {"recover_lorentz", "BoostParams", "classify", "make_samples"} <= set(exported)
