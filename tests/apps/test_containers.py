"""Tests for the container registry, runtime, and the §4.2 startup paths."""

import pytest

from repro.apps.containers import (
    ContainerRuntime,
    ImageSpec,
    LayerSpec,
    Registry,
    RuntimeSpec,
    pytorch_image,
)
from repro.core.fs import FlacFS, PAGE_SIZE
from repro.rack import rendezvous


def small_image(name="tiny:1", total=1 << 22):
    """A 4 MiB image: small enough to fully exercise without sampling."""
    return ImageSpec(
        name=name,
        layers=[
            LayerSpec(digest="sha256:aa" * 16, size_bytes=total // 2),
            LayerSpec(digest="sha256:bb" * 16, size_bytes=total // 2),
        ],
    )


@pytest.fixture
def rig(rack2):
    machine, c0, c1, arena = rack2
    fs = FlacFS(machine, arena)
    registry = Registry()
    registry.push(small_image())
    runtime = ContainerRuntime(fs, registry, RuntimeSpec(runtime_init_ns=1e8))
    return machine, c0, c1, fs, registry, runtime


class TestRegistry:
    def test_manifest_fetch_charges_wan_time(self, rig):
        _, c0, _, _, registry, _ = rig
        before = c0.now()
        image = registry.fetch_manifest(c0, "tiny:1")
        assert image.total_bytes == 1 << 22
        assert c0.now() - before > 1e8  # several WAN round trips

    def test_unknown_image(self, rig):
        _, c0, _, _, registry, _ = rig
        with pytest.raises(KeyError):
            registry.fetch_manifest(c0, "ghost:latest")

    def test_layer_pages_deterministic(self, rig):
        _, _, _, _, registry, _ = rig
        layer = small_image().layers[0]
        assert registry.layer_page(layer, 0) == registry.layer_page(layer, 0)
        assert registry.layer_page(layer, 0) != registry.layer_page(layer, 1)
        assert len(registry.layer_page(layer, 5)) == PAGE_SIZE

    def test_pytorch_image_shape(self):
        image = pytorch_image()
        assert image.total_bytes == pytest.approx(4 << 30, rel=0.01)
        assert len(image.layers) == 5


class TestStartPaths:
    def test_first_start_is_cold(self, rig):
        _, c0, _, _, _, runtime = rig
        report = runtime.start(c0, "tiny:1")
        assert report.kind == "cold"
        assert report.pull_ns > 0 and report.registry_bytes == 1 << 22

    def test_second_node_rides_shared_cache(self, rig):
        _, c0, c1, fs, _, runtime = rig
        runtime.start(c0, "tiny:1")
        rendezvous(c0.node.clock, c1.node.clock)
        report = runtime.start(c1, "tiny:1")
        assert report.kind == "flacos-shared"
        assert report.pull_ns == 0
        assert report.shared_cache_hits > 0
        assert report.manifest_ns > 0  # still fetches metadata

    def test_repeat_start_is_hot(self, rig):
        _, c0, _, _, _, runtime = rig
        runtime.start(c0, "tiny:1")
        report = runtime.start(c0, "tiny:1")
        assert report.kind == "hot"
        assert report.manifest_ns == 0 and report.pull_ns == 0

    def test_latency_ordering_cold_shared_hot(self, rig):
        _, c0, c1, _, _, runtime = rig
        cold = runtime.start(c0, "tiny:1")
        rendezvous(c0.node.clock, c1.node.clock)
        t0 = c1.now()
        shared = runtime.start(c1, "tiny:1")
        shared_elapsed = c1.now() - t0
        hot = runtime.start(c1, "tiny:1")
        assert cold.total_ns > shared_elapsed > hot.total_ns

    def test_shared_start_verifies_content(self, rig):
        """The shared path checks the cache serves the exact layer bytes."""
        _, c0, c1, _, _, runtime = rig
        runtime.start(c0, "tiny:1")
        rendezvous(c0.node.clock, c1.node.clock)
        runtime.start(c1, "tiny:1")  # raises if content were wrong

    def test_layer_files_content_addressed_in_flacfs(self, rig):
        _, c0, _, fs, _, runtime = rig
        runtime.start(c0, "tiny:1")
        layer = small_image().layers[0]
        path = "/layers/" + layer.digest.replace(":", "_")
        assert fs.exists(c0, path)
        assert fs.stat(c0, path).size == 1 << 21

    def test_images_share_base_layers(self, rig):
        """A second image reusing tiny:1's first layer pulls only its
        unique layer — RainbowCake-style layer-wise sharing, for free
        from the content-addressed store + shared page cache."""
        from repro.apps.containers import ImageSpec, LayerSpec

        _, c0, c1, _, registry, runtime = rig
        base = small_image().layers[0]
        derived = ImageSpec(
            name="derived:1",
            layers=[base, LayerSpec(digest="sha256:ff" * 16, size_bytes=1 << 20)],
        )
        registry.push(derived)
        runtime.start(c0, "tiny:1")
        from repro.rack import rendezvous

        rendezvous(c0.node.clock, c1.node.clock)
        report = runtime.start(c1, "derived:1")
        assert report.kind == "cold"  # one layer still had to be pulled...
        assert report.registry_bytes == 1 << 20  # ...but ONLY the unique one
        assert report.shared_cache_hits > 0  # the base came from the cache

    def test_paper_scale_ratio(self, rack2):
        """Full 4 GB image: FlacOS improves startup by ~3.8x (paper)."""
        machine, c0, c1, arena = rack2
        fs = FlacFS(machine, arena)
        registry = Registry()
        registry.push(pytorch_image())
        runtime = ContainerRuntime(fs, registry)
        cold = runtime.start(c0, "pytorch:2.1")
        rendezvous(c0.node.clock, c1.node.clock)
        t0 = c1.now()
        runtime.start(c1, "pytorch:2.1")
        shared_s = (c1.now() - t0) / 1e9
        ratio = cold.total_s / shared_s
        assert 2.5 < ratio < 5.5, f"startup improvement {ratio:.2f}x far from paper's 3.8x"
        assert 15 < cold.total_s < 30  # paper: 21.067 s
        assert 3.5 < shared_s < 8  # paper: 5.526 s
