"""Applications from the paper's evaluation and case study (§4).

MiniRedis (Figure 4's workload), the container image service and
runtime (the §4.2 startup experiment), and the rack-level serverless
platform (the §4.1 case study).
"""

from .collectives import (
    CollectiveReport,
    SharedMemoryCollectives,
    TcpCollectives,
)
from .containers import (
    ContainerRuntime,
    ImageSpec,
    LayerSpec,
    Registry,
    RegistrySpec,
    RuntimeSpec,
    StartReport,
    pytorch_image,
)
from .redis import (
    FlacTransport,
    MiniRedisClient,
    MiniRedisServer,
    TcpTransport,
    connect_over_flacos,
    connect_over_tcp,
)
from .resp import RedisError, RespError, decode, encode_command, encode_reply
from .serverless import (
    ChainReport,
    FunctionSpec,
    InvokeReport,
    Sandbox,
    ServerlessPlatform,
)
from .shuffle import (
    FlacShuffle,
    NetworkShuffle,
    ShuffleReport,
    decode_records,
    encode_records,
    partition_of,
    run_shuffle_job,
)

__all__ = [
    "ChainReport",
    "CollectiveReport",
    "SharedMemoryCollectives",
    "TcpCollectives",
    "ContainerRuntime",
    "FlacTransport",
    "FunctionSpec",
    "ImageSpec",
    "InvokeReport",
    "LayerSpec",
    "MiniRedisClient",
    "MiniRedisServer",
    "RedisError",
    "Registry",
    "RegistrySpec",
    "RespError",
    "RuntimeSpec",
    "Sandbox",
    "ServerlessPlatform",
    "StartReport",
    "TcpTransport",
    "connect_over_flacos",
    "connect_over_tcp",
    "decode",
    "decode_records",
    "encode_command",
    "encode_records",
    "encode_reply",
    "FlacShuffle",
    "NetworkShuffle",
    "partition_of",
    "pytorch_image",
    "run_shuffle_job",
    "ShuffleReport",
]
