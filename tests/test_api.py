import graspmass


def test_every_public_name_resolves():
    assert len(set(graspmass.__all__)) == len(graspmass.__all__)
    for name in graspmass.__all__:
        assert getattr(graspmass, name, None) is not None, name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from graspmass import *", namespace)
    assert set(graspmass.__all__) <= set(namespace)
