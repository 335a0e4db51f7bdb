/**
 * @file
 * Multi-client virtual-breakpoint debug server (DESIGN.md §13).
 *
 * The server multiplexes many debugger frontends over one fleet:
 * each client attaches a supervised session to a tag world, sets
 * virtual breakpoints (edb/vbreak.hh) with conditions over
 * registers, NV words and the capacitor voltage, and reads target
 * state — all evaluated host-side at the fleet's epoch barriers with
 * *zero* target energy cost. The energy-interference-freedom claim
 * is not aspirational: read-only sessions never touch the memory
 * map, never advance the analog model and never draw from a world's
 * RNG, so per-world digests are bit-identical with and without
 * clients attached (the chaos soak pins this), and every command
 * handler additionally asserts a zero capacitor-voltage delta — the
 * charge/restore discipline of the paper's active mode, degenerated
 * to "you may not move the needle at all".
 *
 * Wire format: each direction carries the CRC-framed byte protocol
 * of runtime/protocol_defs.hh (sync + len + payload + CRC-8), with
 * JSON-RPC-flavoured payloads layered on top via ProtocolEngine's
 * `rawFrame` hook. Requests are objects like
 *
 *     {"id":7,"m":"setbreak","addr":"0x4010","cond":"r2>=5"}
 *
 * and responses echo the id: `{"id":7,"ok":true,"bk":1}`. Server
 * events (breakpoint hits, pings, shed notices) are id-less objects
 * with an "ev" key. Every frame the server emits fits the 255-byte
 * payload limit by construction (reads are chunked, symbol listings
 * paginated).
 *
 * Supervision (per session): idle timeouts answered with bounded
 * ping probes then abort; per-command deadlines (stale queued
 * commands fail loudly instead of executing late); bounded delivery
 * retries with exponential backoff against clients that stop
 * draining their receive queue; bounded command queues with explicit
 * `busy` backpressure; an eval-budget shedder that drops the
 * heaviest sessions when breakpoint evaluation exceeds the per-poll
 * budget. Every terminal session leaves a SessionReport — nothing is
 * shed or aborted silently. Malformed, truncated, duplicated,
 * replayed and trickled (slowloris) frames are survived by the same
 * ProtocolEngine resync machinery the EDB board uses on the target
 * UART, with a per-poll inter-byte timeout expiring frames that
 * never finish.
 */

#ifndef EDB_EDB_SERVER_HH
#define EDB_EDB_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "edb/protocol.hh"
#include "edb/vbreak.hh"
#include "isa/listing.hh"
#include "sim/fault.hh"
#include "sim/time.hh"

namespace edb::fleet {
class Fleet;
}

namespace edb::edbdbg {

/**
 * Minimal JSON value for the RPC layer: null / bool / number /
 * string / array / object. The parser is depth-capped and never
 * throws — adversarial nesting or byte soup yields nullopt, not a
 * crash or unbounded recursion.
 */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj,
    };

    JsonValue() = default;

    static std::optional<JsonValue>
    parse(const std::string &text, std::size_t max_depth = 8);
    static std::optional<JsonValue>
    parse(const std::vector<std::uint8_t> &bytes,
          std::size_t max_depth = 8);

    Type type() const { return type_; }
    bool isObj() const { return type_ == Type::Obj; }

    /** Object member (nullptr when absent or not an object). */
    const JsonValue *get(const std::string &key) const;

    /** Typed reads with defaults (never throw). */
    double num(double fallback = 0.0) const;
    bool boolean(bool fallback = false) const;
    const std::string &str() const { return str_; }
    const std::vector<JsonValue> &arr() const { return arr_; }

    /**
     * Read a member as an integer, accepting both JSON numbers and
     * "0x..." hex strings (addresses travel as hex text).
     */
    std::optional<std::uint64_t>
    getUint(const std::string &key) const;
    std::optional<std::string>
    getStr(const std::string &key) const;

  private:
    friend class JsonBuilder;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
};

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

/**
 * Frame one JSON-RPC message (server replies and events, RpcClient
 * requests). A body of exactly proto::syncByte (126) bytes would put
 * the sync byte in the length slot, which the parser takes for a
 * repeated sync (runtime/protocol_defs.hh), so it gets one trailing
 * space; JSON ignores trailing whitespace.
 */
std::vector<std::uint8_t> buildJsonFrame(const std::string &json);

/**
 * One in-memory duplex connection between a client and the server.
 * Both directions are bounded byte queues; a full queue rejects
 * writes (that is the backpressure signal, not silent loss). The
 * server owns the wire; the client keeps a handle.
 */
class ClientWire
{
  public:
    explicit ClientWire(std::size_t max_queued_bytes)
        : cap(max_queued_bytes)
    {}

    /// @name Client side
    /// @{
    /** Queue bytes toward the server; false when over capacity. */
    bool toServer(const std::vector<std::uint8_t> &bytes);
    /** Drain everything the server has queued for this client. */
    std::vector<std::uint8_t> fromServer();
    /** Hard-close (mid-command disconnects included). */
    void disconnect() { connected_ = false; }
    bool connected() const { return connected_; }
    /// @}

    /// @name Server side
    /// @{
    /** Drain up to `max_bytes` inbound bytes (0 = all). */
    std::vector<std::uint8_t> serverDrain(std::size_t max_bytes);
    /** Queue bytes toward the client; false when over capacity. */
    bool toClient(const std::vector<std::uint8_t> &bytes);
    std::size_t clientBacklog() const { return s2c.size(); }
    /// @}

  private:
    std::size_t cap;
    bool connected_ = true;
    std::deque<std::uint8_t> c2s;
    std::deque<std::uint8_t> s2c;
};

/** Supervision and resource knobs. */
struct ServerConfig
{
    std::size_t maxClients = 32;
    /** Per-direction wire queue capacity (bytes). */
    std::size_t maxQueuedBytes = 2048;
    /** Parsed commands queued per session; overflow answers
     *  `{"ok":false,"err":"busy"}` instead of queueing. */
    std::size_t maxPendingCmds = 8;
    /** Round-robin quantum: commands served per session per poll. */
    unsigned commandsPerPoll = 4;
    /** Queued commands older than this fail with "deadline". */
    sim::Tick commandDeadline = 50 * sim::oneMs;
    /** No valid inbound frame for this long: start probing. */
    sim::Tick idleTimeout = 200 * sim::oneMs;
    /** Unanswered ping probes before the session is aborted. */
    unsigned maxProbes = 3;
    /** Outbound delivery retries before a non-draining client is
     *  shed (each retry backs off exponentially). */
    unsigned deliveryRetryMax = 4;
    /** First retry delay; doubles per attempt. */
    sim::Tick deliveryBackoffBase = 5 * sim::oneMs;
    /** Inter-byte resync timeout on each client parser (slowloris
     *  defense; must be shorter than the fleet epoch). */
    sim::Tick interByteTimeout = 2 * sim::oneMs;
    /** Breakpoint-evaluation budget per poll (0 = unlimited); when
     *  exceeded the heaviest sessions are shed. */
    std::uint64_t evalBudgetPerPoll = 0;
    std::size_t maxBreakpointsPerSession = 16;
    /** Pending-hit buffer per world (overflow counts, never grows). */
    std::size_t maxHitsPerWorld = 256;
    /** Max bytes per `read` command reply chunk. */
    std::size_t readChunkMax = 64;
    /** Symbols returned per `symbols` page. */
    std::size_t symbolsPerPage = 4;
};

/** Why a session ended (or was degraded). */
enum class SessionOutcome
{
    Active,       ///< Still attached (not a terminal outcome).
    Completed,    ///< Clean detach.
    Shed,         ///< Server dropped it (backpressure/eval budget).
    Aborted,      ///< Supervision gave up (idle, probes exhausted).
    Disconnected, ///< Client vanished mid-session.
};

const char *sessionOutcomeName(SessionOutcome o);

/** Terminal record: every shed/aborted session leaves exactly one. */
struct SessionReport
{
    std::uint32_t sessionId = 0;
    std::string client;
    std::size_t world = SIZE_MAX;
    SessionOutcome outcome = SessionOutcome::Active;
    std::string reason;
    bool degraded = false;
    std::uint64_t commandsServed = 0;
    std::uint64_t commandsDeadlined = 0;
    std::uint64_t commandsBackpressured = 0;
    std::uint64_t hitsDelivered = 0;
    std::uint64_t hitsDropped = 0;
    /** Command replies shed at the outbox cap (client not draining);
     *  distinct from hitsDropped, which counts breakpoint hits. */
    std::uint64_t repliesDropped = 0;
    std::uint64_t deliveryRetries = 0;
};

/** See file header. */
class DebugServer
{
  public:
    struct Stats
    {
        std::uint64_t polls = 0;
        std::uint64_t framesIn = 0;
        std::uint64_t framesOut = 0;
        std::uint64_t malformedJson = 0;
        std::uint64_t commandsServed = 0;
        std::uint64_t commandsDeadlined = 0;
        std::uint64_t commandsBackpressured = 0;
        std::uint64_t probesSent = 0;
        std::uint64_t sessionsShed = 0;
        std::uint64_t sessionsAborted = 0;
        std::uint64_t hitsDelivered = 0;
        std::uint64_t hitsDropped = 0;
        /** Command replies shed at the outbox cap. */
        std::uint64_t repliesDropped = 0;
        std::uint64_t evalsCharged = 0;
        /** Per-command capacitor-voltage deltas observed != 0 —
         *  must stay 0 for read-only sessions (interference). */
        std::uint64_t interferenceViolations = 0;
        std::uint64_t oversizeReplies = 0;
    };

    DebugServer(fleet::Fleet &fleet, ServerConfig config = {});
    ~DebugServer();

    /** Symbol table served to every world (default firmware). */
    void setSymbols(isa::SymbolTable table);

    /**
     * Accept a new client connection. Returns the wire handle the
     * client talks through, or nullptr when `maxClients` connections
     * already exist (connection-level backpressure).
     */
    ClientWire *connect(const std::string &client_name);

    /**
     * Drive the fleet one epoch and service clients at the barrier.
     * Breakpoint probes are (re-)installed on every attached world
     * before the epoch runs — rebalance migrations build fresh
     * worlds, losing tracers, so installation must repeat.
     */
    void runEpoch();
    /** `runEpoch` n times. */
    void runEpochs(unsigned epochs);

    /**
     * Service wires without advancing the fleet: drain inbound
     * bytes, execute due commands, deliver hits and responses, run
     * supervision. Called from runEpoch; callable alone to quiesce.
     */
    void poll();

    /// @name Inspection
    /// @{
    const Stats &stats() const { return stats_; }
    /** Terminal-session records (every shed/abort appears here). */
    const std::vector<SessionReport> &reports() const
    {
        return reports_;
    }
    /** Sessions neither healthy-idle nor terminal after a quiesce:
     *  mid-command or mid-frame with no way to make progress. The
     *  chaos soak requires this to be zero. */
    std::size_t stuckSessions() const;
    /** Live (non-terminal) session count. */
    std::size_t activeSessions() const;
    const ServerConfig &config() const { return cfg; }
    /// @}

  private:
    struct Session;

    void installProbes();
    void drainWires();
    void serveCommands();
    void deliverHits();
    void flushOutboxes();
    void superviseSessions();
    void shedOverBudget();
    void reapDisconnected();

    void onFrame(Session &s, const std::vector<std::uint8_t> &pl);
    void execute(Session &s, const JsonValue &req);
    void dispatchCmd(Session &s, const JsonValue &req);
    /**
     * Frame `json` into the session outbox; false when shed at the
     * outbox cap. `hit_event` classifies a shed frame as a dropped
     * breakpoint hit rather than a dropped command reply.
     */
    bool enqueueReply(Session &s, const std::string &json,
                      bool hit_event = false);
    void terminate(Session &s, SessionOutcome outcome,
                   const std::string &reason);

    fleet::Fleet &fleet_;
    ServerConfig cfg;
    isa::SymbolTable symbols_;
    std::vector<std::unique_ptr<Session>> sessions;
    /** Probes by world index; installed as tracers each epoch. */
    std::map<std::size_t, WorldProbe> probes;
    /** Probe-buffer drops already folded into stats_. */
    std::map<std::size_t, std::uint64_t> probeDropsSeen;
    std::vector<SessionReport> reports_;
    Stats stats_;
    std::uint32_t nextSessionId = 1;
    std::uint32_t nextBreakId = 1;
    std::size_t rrNext = 0; ///< Round-robin start cursor.
};

/**
 * Test/soak-side client: frames JSON requests, optionally mangles
 * them through a ClientFaultPlan (including slowloris trickling and
 * scripted disconnects), and parses server frames back into
 * JsonValue responses and events.
 */
class RpcClient
{
  public:
    RpcClient(DebugServer &server, std::string client_name,
              sim::ClientFaultPlan faults = disabledFaults());

    /** True when the server accepted the connection. */
    bool connected() const { return wire_ && wire_->connected(); }

    /**
     * Frame and stage one request; `body` is the JSON text minus
     * the id, e.g. `"m":"attach","world":0`. Returns the request id
     * (0 when the connection is gone).
     */
    std::uint64_t request(const std::string &body);

    /**
     * Move staged bytes onto the wire (respecting any slowloris
     * budget) and drain/parse server frames. Call once per epoch.
     */
    void pump();

    /** Responses received so far (id-bearing objects), oldest
     *  first; caller takes them. */
    std::vector<JsonValue> takeResponses();
    /** Server events ("ev" objects: hits, pings, bye). */
    std::vector<JsonValue> takeEvents();

    /** Wait helper for tests: pump up to `epochs` fleet epochs (via
     *  the server) until a response with `id` arrives. */
    std::optional<JsonValue> await(std::uint64_t id,
                                   unsigned epochs = 50);

    void disconnect();

    const sim::ClientWireFaults &faults() const { return faults_; }

    static sim::ClientFaultPlan
    disabledFaults()
    {
        sim::ClientFaultPlan p;
        p.enabled = false;
        return p;
    }

  private:
    DebugServer &server_;
    std::string name_;
    ClientWire *wire_;
    sim::ClientWireFaults faults_;
    ProtocolEngine parser;
    std::deque<std::uint8_t> staged;
    std::vector<JsonValue> responses;
    std::vector<JsonValue> events;
    std::uint64_t nextId = 1;
};

} // namespace edb::edbdbg

#endif // EDB_EDB_SERVER_HH
