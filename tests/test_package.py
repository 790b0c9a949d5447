import sphererec


def test_every_export_resolves_lazily():
    # exports load on first access, so a stale entry would only fail its first caller
    for name in sphererec.__all__:
        assert name not in vars(sphererec)
        value = getattr(sphererec, name)
        assert value.__name__ == name
        assert value.__module__ == f"sphererec.{sphererec._EXPORTS[name]}"
