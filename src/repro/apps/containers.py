"""Container image service + runtime: the §4.2 startup experiment.

The paper's second experiment: node 1 cold-starts a 4 GB PyTorch
container (registry pull: 21.067 s); node 2 then starts the same image
and FlacOS serves the image bytes from the shared page cache populated
by node 1's startup (5.526 s) — still fetching the manifest, which is
why a fully-local hot start (3.02 s) beats it.

Image data volume: 4 GB of real bytes would dominate host time, so the
runtime *exercises* the real path (FlacFS + shared page cache) on a
deterministic sample of pages and charges the remaining bytes at the
measured per-byte rates.  The mechanism (shared-cache hit vs registry
transfer) is fully real; only the byte count is scaled.  See DESIGN.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List

from ..core.fs import FlacFS, PAGE_SIZE
from ..rack.machine import NodeContext


@dataclass(frozen=True)
class LayerSpec:
    digest: str
    size_bytes: int


@dataclass(frozen=True)
class ImageSpec:
    """An OCI-style image: a manifest plus content-addressed layers."""

    name: str
    layers: List[LayerSpec]
    MANIFEST_BYTES = 8192


def pytorch_image() -> ImageSpec:
    """The paper's 4 GB PyTorch image, split into realistic layers."""
    fractions = [0.55, 0.25, 0.12, 0.05, 0.03]
    layers = [
        LayerSpec(digest=f"sha256:{i:02d}{'ab' * 15}", size_bytes=int((4 << 30) * f))
        for i, f in enumerate(fractions)
    ]
    return ImageSpec(name="pytorch:2.1", layers=layers)


@dataclass
class RegistrySpec:
    """A WAN-remote image registry."""

    #: request round trip (WAN metadata operations incl. auth).
    rtt_ns: float = 150e6
    #: sustained pull bandwidth in bytes per nanosecond (~340 MB/s).
    bandwidth_bytes_per_ns: float = 0.34
    #: token/auth + manifest/config resolution requests per pull.
    metadata_requests: int = 6


class Registry:
    """Serves manifests and layer blobs over the WAN."""

    def __init__(self, spec: RegistrySpec = RegistrySpec()) -> None:
        self.spec = spec
        self._images: Dict[str, ImageSpec] = {}
        self.blob_bytes_served = 0
        self.manifest_requests = 0

    def push(self, image: ImageSpec) -> None:
        self._images[image.name] = image

    def fetch_manifest(self, ctx: NodeContext, name: str) -> ImageSpec:
        image = self._images.get(name)
        if image is None:
            raise KeyError(f"image {name!r} not in registry")
        ctx.advance(self.spec.metadata_requests * self.spec.rtt_ns)
        ctx.advance(image.MANIFEST_BYTES / self.spec.bandwidth_bytes_per_ns)
        self.manifest_requests += 1
        return image

    def fetch_layer_ns(self, layer: LayerSpec) -> float:
        """Wire time of pulling one layer blob."""
        return self.spec.rtt_ns + layer.size_bytes / self.spec.bandwidth_bytes_per_ns

    def layer_page(self, layer: LayerSpec, page_idx: int) -> bytes:
        """Deterministic content of one page of a layer blob."""
        seed = hashlib.blake2b(
            f"{layer.digest}:{page_idx}".encode(), digest_size=32
        ).digest()
        return (seed * (PAGE_SIZE // 32))[:PAGE_SIZE]


@dataclass
class StartReport:
    """Latency breakdown of one container start."""

    image: str
    node_id: int
    kind: str  # "cold" | "flacos-shared" | "hot"
    manifest_ns: float = 0.0
    pull_ns: float = 0.0
    image_read_ns: float = 0.0
    unpack_ns: float = 0.0
    runtime_init_ns: float = 0.0
    total_ns: float = 0.0
    shared_cache_hits: int = 0
    registry_bytes: int = 0

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9


@dataclass
class RuntimeSpec:
    """Costs of the container runtime itself."""

    #: decompression throughput (bytes per ns, ~2 GB/s); page-cache
    #: population costs are charged by the real FlacFS writes.
    unpack_bytes_per_ns: float = 2.0
    #: starting the runtime and the application inside (the paper's hot
    #: start is 3.02 s — dominated by PyTorch/python initialisation).
    runtime_init_ns: float = 3.02e9
    #: pages per layer exercised through the real FlacFS path; the rest
    #: of the layer's bytes are charged at the measured per-byte rate.
    SAMPLE_PAGES = 64
    #: pages per read/write call (image IO is chunked, like a real
    #: runtime streaming layers — syscall and metadata costs amortise).
    CHUNK_PAGES = 16


class ContainerRuntime:
    """Starts containers with FlacFS as the image store (RootFS)."""

    def __init__(self, fs: FlacFS, registry: Registry, spec: RuntimeSpec = RuntimeSpec()) -> None:
        self.fs = fs
        self.registry = registry
        self.spec = spec
        #: content-addressed layer store: digests fully present in FlacFS.
        #: Images SHARE layers — pulling an image fetches only the layers
        #: no previous image (from any node) already materialised.
        self._materialised_layers: set = set()
        #: nodes that have a fully warmed local runtime for an image
        self._hot_nodes: Dict[str, set] = {}

    # -- the three start paths --------------------------------------------------------

    def start(self, ctx: NodeContext, name: str) -> StartReport:
        """Start a container, taking whatever path its state allows.

        Per layer, not per image: only layers *no* previous start (of any
        image, on any node) materialised are pulled; the rest come from
        the shared page cache.  The start is "cold" if anything was
        pulled, "flacos-shared" if the whole image came from the cache.
        """
        if ctx.node_id in self._hot_nodes.get(name, set()):
            return self._start_hot(ctx, name)
        report = StartReport(image=name, node_id=ctx.node_id, kind="flacos-shared")
        start = ctx.now()
        image = self._fetch_manifest(ctx, name, report)
        hits_before = self.fs.page_cache.stats.hits
        for layer in image.layers:
            if layer.digest in self._materialised_layers:
                t0 = ctx.now()
                self._read_layer_via_cache(ctx, layer)
                report.image_read_ns += ctx.now() - t0
            else:
                report.kind = "cold"
                t0 = ctx.now()
                ctx.advance(self.registry.fetch_layer_ns(layer))
                report.pull_ns += ctx.now() - t0
                report.registry_bytes += layer.size_bytes
                t0 = ctx.now()
                self._materialise_layer(ctx, layer)
                ctx.advance(layer.size_bytes / self.spec.unpack_bytes_per_ns)
                report.unpack_ns += ctx.now() - t0
                self._materialised_layers.add(layer.digest)
        report.shared_cache_hits = self.fs.page_cache.stats.hits - hits_before
        self._finish(ctx, name, report, start)
        return report

    def _start_hot(self, ctx: NodeContext, name: str) -> StartReport:
        """Everything local and warm: only the runtime init remains."""
        report = StartReport(image=name, node_id=ctx.node_id, kind="hot")
        start = ctx.now()
        self._finish(ctx, name, report, start)
        return report

    # -- internals ------------------------------------------------------------------------

    def _fetch_manifest(self, ctx: NodeContext, name: str, report: StartReport) -> ImageSpec:
        t0 = ctx.now()
        image = self.registry.fetch_manifest(ctx, name)
        report.manifest_ns = ctx.now() - t0
        return image

    def _finish(self, ctx: NodeContext, name: str, report: StartReport, start_ns: float) -> None:
        ctx.advance(self.spec.runtime_init_ns)
        report.runtime_init_ns = self.spec.runtime_init_ns
        report.total_ns = ctx.now() - start_ns
        self._hot_nodes.setdefault(name, set()).add(ctx.node_id)

    def _ensure_dir(self, ctx: NodeContext, path: str) -> None:
        parts = [p for p in path.split("/") if p]
        prefix = ""
        for part in parts:
            prefix += "/" + part
            if not self.fs.exists(ctx, prefix):
                self.fs.mkdir(ctx, prefix)

    def _layer_path(self, layer: LayerSpec) -> str:
        """Content-addressed: one file per digest, shared across images."""
        return "/layers/" + layer.digest.replace(":", "_")

    def _materialise_layer(self, ctx: NodeContext, layer: LayerSpec) -> None:
        """Write a sample of the layer through FlacFS (populating the
        shared page cache) and charge the unexercised remainder."""
        self._ensure_dir(ctx, "/layers")
        path = self._layer_path(layer)
        fd = self.fs.open(ctx, path, create=True)
        # declare the final size first so streaming writes don't log a
        # metadata size update per chunk
        self.fs.truncate(ctx, fd, layer.size_bytes)
        n_pages = max(1, layer.size_bytes // PAGE_SIZE)
        sample = min(self.spec.SAMPLE_PAGES, n_pages)
        t0 = ctx.now()
        for base in range(0, sample, self.spec.CHUNK_PAGES):
            pages = range(base, min(base + self.spec.CHUNK_PAGES, sample))
            chunk = b"".join(self.registry.layer_page(layer, p) for p in pages)
            self.fs.write(ctx, fd, base * PAGE_SIZE, chunk)
        per_page = (ctx.now() - t0) / sample
        ctx.advance(per_page * (n_pages - sample))  # the unexercised tail
        self.fs.close(ctx, fd)

    def _read_layer_via_cache(self, ctx: NodeContext, layer: LayerSpec) -> None:
        """Read the layer sample through the shared page cache and charge
        the remainder at the measured rate."""
        path = self._layer_path(layer)
        fd = self.fs.open(ctx, path)
        n_pages = max(1, layer.size_bytes // PAGE_SIZE)
        sample = min(self.spec.SAMPLE_PAGES, n_pages)
        t0 = ctx.now()
        for base in range(0, sample, self.spec.CHUNK_PAGES):
            count = min(self.spec.CHUNK_PAGES, sample - base)
            content = self.fs.read(ctx, fd, base * PAGE_SIZE, count * PAGE_SIZE)
            expected = b"".join(
                self.registry.layer_page(layer, base + i) for i in range(count)
            )
            if content != expected:
                raise RuntimeError(f"shared cache served wrong bytes for {path} @{base}")
        per_page = (ctx.now() - t0) / sample
        ctx.advance(per_page * (n_pages - sample))
        self.fs.close(ctx, fd)
