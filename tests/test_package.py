import fedmeter


def test_every_exported_name_resolves():
    missing = [name for name in fedmeter.__all__ if not hasattr(fedmeter, name)]
    assert missing == []
