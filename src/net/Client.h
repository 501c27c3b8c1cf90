//===- net/Client.h - Blocking loopback protocol client --------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately simple blocking client for the wire protocol. It exposes
/// the *raw* byte path on purpose (sendBytes), because half of what the
/// net suite tests is the server's reaction to bytes a well-behaved client
/// would never send — truncated prefixes, lying lengths, garbage payloads,
/// abrupt resets.
///
/// pipelineRequests() is the one windowed load loop built on it: the test
/// suites, the socket soak, and smokestack-opt's -serve self-test all
/// drive well-formed traffic through SocketServer with it.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_NET_CLIENT_H
#define SMOKESTACK_NET_CLIENT_H

#include "net/FrameCodec.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace smokestack {

class BlockingClient {
public:
  BlockingClient() = default;
  ~BlockingClient();
  BlockingClient(const BlockingClient &) = delete;
  BlockingClient &operator=(const BlockingClient &) = delete;

  /// Connects to 127.0.0.1:\p Port (blocking, TCP_NODELAY).
  bool connectTo(uint16_t Port, std::string *Err = nullptr);

  bool connected() const { return Fd >= 0; }

  /// Writes exactly \p Len bytes (loops over short writes). Returns false
  /// on any socket error.
  bool sendBytes(const void *Data, size_t Len);

  /// Encodes and sends one request frame.
  bool sendRequest(const WireRequest &Req);

  /// Receives the next complete, schema-valid response frame, waiting up
  /// to \p TimeoutMillis. Returns false on timeout, peer close, or a
  /// malformed response. Pipelined responses buffered by an earlier call
  /// are returned first.
  bool recvResponse(WireResponse &Out, unsigned TimeoutMillis = 5000);

  /// True once the server has closed the stream (observed by recv).
  bool peerClosed() const { return PeerClosed; }

  /// Graceful close (FIN).
  void closeConn();

  /// Abrupt close: SO_LINGER 0 makes the kernel send RST, the shape of a
  /// client dying mid-stream (FaultSite::ConnReset seen from the server).
  void resetConn();

private:
  int Fd = -1;
  FrameDecoder Decoder;
  bool PeerClosed = false;
};

/// Shape of one pipelineRequests() load.
struct PipelineOptions {
  /// Concurrent connections; connection T owns the indices I % C == T.
  unsigned Connections = 1;
  /// Most unanswered requests per connection.
  uint64_t Window = 16;
  /// Longest wait for any one response.
  unsigned TimeoutMillis = 5000;
  /// Fills a request's payload; Index is already set. Null sends empty
  /// requests.
  std::function<void(WireRequest &)> Fill;
  /// Polled before each send batch; true ends the load early, which is not
  /// a failure. Null never stops. Fill and Stop run concurrently on the
  /// connection threads.
  std::function<bool()> Stop;
};

/// What one pipelineRequests() load got back.
struct PipelineResult {
  /// Responses[I] holds index I's response, or nothing if none arrived.
  std::vector<std::optional<WireResponse>> Responses;
  uint64_t Sent = 0;
  uint64_t Answered = 0;
  /// False after a connect, send, or timeout error, or a response with a
  /// duplicate or out-of-range index; Error says which (the first one).
  bool Ok = true;
  std::string Error;
};

/// Sends indices [0, \p N) to 127.0.0.1:\p Port over Opts.Connections
/// connections, each keeping at most Opts.Window requests unanswered, and
/// collects the responses by index. A failing connection stops the others
/// at their next receive.
PipelineResult pipelineRequests(uint16_t Port, uint64_t N,
                                const PipelineOptions &Opts = {});

} // namespace smokestack

#endif // SMOKESTACK_NET_CLIENT_H
