"""Unit tests for the Tydi-IR data model."""

import pytest

from repro.errors import TydiBackendError, TydiTypeError
from repro.ir.model import (
    ClockDomain,
    Connection,
    Implementation,
    Instance,
    Port,
    PortDirection,
    PortRef,
    Project,
    Streamlet,
)
from repro.spec.logical_types import Bit, Stream


def byte_stream():
    return Stream.new(Bit(8), dimension=1)


def simple_project():
    project = Project(name="demo")
    inner = Streamlet("inner_s", [
        Port("x", byte_stream(), PortDirection.IN),
        Port("y", byte_stream(), PortDirection.OUT),
    ])
    top = Streamlet("top_s", [
        Port("i", byte_stream(), PortDirection.IN),
        Port("o", byte_stream(), PortDirection.OUT),
    ])
    project.add_streamlet(inner)
    project.add_streamlet(top)
    inner_impl = Implementation("inner_i", "inner_s", external=True)
    project.add_implementation(inner_impl)
    top_impl = Implementation("top_i", "top_s")
    top_impl.add_instance(Instance("u", "inner_i"))
    top_impl.add_connection(Connection(PortRef("i"), PortRef("x", "u")))
    top_impl.add_connection(Connection(PortRef("y", "u"), PortRef("o")))
    project.add_implementation(top_impl)
    project.top = "top_i"
    return project


class TestPort:
    def test_requires_logical_type(self):
        with pytest.raises(TydiTypeError):
            Port("p", "not a type", PortDirection.IN)

    def test_name_is_sanitized(self):
        port = Port("bad name!", byte_stream(), PortDirection.OUT)
        assert port.name == "bad_name"

    def test_direction_flip(self):
        assert PortDirection.IN.flipped() is PortDirection.OUT


class TestStreamlet:
    def test_duplicate_ports_rejected(self):
        with pytest.raises(TydiBackendError):
            Streamlet("s", [
                Port("a", byte_stream(), PortDirection.IN),
                Port("a", byte_stream(), PortDirection.OUT),
            ])

    def test_port_lookup(self):
        streamlet = Streamlet("s", [Port("a", byte_stream(), PortDirection.IN)])
        assert streamlet.port("a").direction is PortDirection.IN
        with pytest.raises(TydiBackendError):
            streamlet.port("missing")

    def test_get_port_returns_none_on_a_miss(self):
        streamlet = Streamlet("s", [Port("a", byte_stream(), PortDirection.IN)])
        assert streamlet.get_port("a") is streamlet.port("a")
        assert streamlet.get_port("missing") is None

    def test_inputs_outputs_split(self):
        streamlet = simple_project().streamlet("inner_s")
        assert [p.name for p in streamlet.inputs()] == ["x"]
        assert [p.name for p in streamlet.outputs()] == ["y"]


class TestPortRef:
    def test_parse_self_port(self):
        assert PortRef.parse("data") == PortRef("data")

    def test_parse_instance_port(self):
        assert PortRef.parse("adder.lhs") == PortRef("lhs", "adder")

    def test_str_roundtrip(self):
        assert str(PortRef.parse("a.b")) == "a.b"


class TestImplementation:
    def test_duplicate_instance_rejected(self):
        impl = Implementation("x", "s")
        impl.add_instance(Instance("u", "other"))
        with pytest.raises(TydiBackendError):
            impl.add_instance(Instance("u", "other"))

    def test_instance_lookup(self):
        impl = simple_project().implementation("top_i")
        assert impl.instance("u").implementation == "inner_i"
        assert impl.has_instance("u")
        assert not impl.has_instance("v")

    def test_get_instance_returns_none_on_a_miss(self):
        impl = simple_project().implementation("top_i")
        assert impl.get_instance("u") is impl.instance("u")
        assert impl.get_instance("v") is None


class TestProject:
    def test_resolve_ports(self):
        project = simple_project()
        top = project.implementation("top_i")
        self_port = project.resolve_port(top, PortRef("i"))
        inner_port = project.resolve_port(top, PortRef("x", "u"))
        assert self_port.name == "i"
        assert inner_port.name == "x"

    @pytest.mark.parametrize(
        "ref, text",
        [
            (PortRef("z"), "streamlet 'top_s' has no port 'z'"),
            (PortRef("x", "v"), "implementation 'top_i' has no instance 'v'"),
            (PortRef("z", "u"), "streamlet 'inner_s' has no port 'z'"),
        ],
    )
    def test_resolve_port_error_texts(self, ref, text):
        project = simple_project()
        with pytest.raises(TydiBackendError) as excinfo:
            project.resolve_port(project.implementation("top_i"), ref)
        assert str(excinfo.value) == text

    def test_resolve_port_error_text_for_a_missing_implementation(self):
        project = simple_project()
        top = project.implementation("top_i")
        top.instances[0].implementation = "ghost_i"
        with pytest.raises(TydiBackendError) as excinfo:
            project.resolve_port(top, PortRef("x", "u"))
        assert str(excinfo.value) == "project has no implementation 'ghost_i'"

    def test_validate_passes(self):
        simple_project().validate()

    def test_validate_catches_unknown_instance_target(self):
        project = simple_project()
        project.implementation("top_i").instances[0].implementation = "ghost_i"
        with pytest.raises(TydiBackendError):
            project.validate()

    def test_validate_catches_bad_top(self):
        project = simple_project()
        project.top = "missing"
        with pytest.raises(TydiBackendError):
            project.validate()

    def test_implementation_requires_known_streamlet(self):
        project = Project()
        with pytest.raises(TydiBackendError):
            project.add_implementation(Implementation("x", "ghost_s"))

    def test_statistics(self):
        stats = simple_project().statistics()
        assert stats == {
            "streamlets": 2,
            "implementations": 2,
            "external_implementations": 1,
            "instances": 1,
            "connections": 2,
            "ports": 4,
        }

    def test_iterators(self):
        project = simple_project()
        assert len(list(project.iter_connections())) == 2
        assert len(list(project.iter_instances())) == 1

    def test_top_implementation_accessor(self):
        project = simple_project()
        assert project.top_implementation().name == "top_i"
        project.top = None
        with pytest.raises(TydiBackendError):
            project.top_implementation()

    def test_clock_domain_default(self):
        assert ClockDomain().name == "default"
