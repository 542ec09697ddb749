#include "sim/workqueue.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "sim/wire.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace udp {

using namespace wire;

namespace {

double
nowMonotonicSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Parses all of @p s as a decimal port in 0..65535. */
bool
parsePort(const std::string& s, int* out)
{
    if (s.empty() || s.size() > 5) {
        return false;
    }
    int v = 0;
    for (char c : s) {
        if (c < '0' || c > '9') {
            return false;
        }
        v = v * 10 + (c - '0');
    }
    if (v > 65535) {
        return false;
    }
    *out = v;
    return true;
}

bool
sendAllDeadline(int fd, const std::string& data, double deadlineMono)
{
    std::size_t off = 0;
    while (off < data.size()) {
        double remain = deadlineMono - nowMonotonicSec();
        if (remain <= 0) {
            return false;
        }
        struct pollfd pfd = {fd, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, static_cast<int>(remain * 1000.0) + 1);
        if (rc < 0 && errno == EINTR) {
            continue;
        }
        if (rc <= 0) {
            return false;
        }
        ssize_t w = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK) {
                continue;
            }
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

bool
recvExactDeadline(int fd, std::string* out, std::size_t n,
                  double deadlineMono)
{
    out->clear();
    while (out->size() < n) {
        double remain = deadlineMono - nowMonotonicSec();
        if (remain <= 0) {
            return false;
        }
        struct pollfd pfd = {fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, static_cast<int>(remain * 1000.0) + 1);
        if (rc < 0 && errno == EINTR) {
            continue;
        }
        if (rc <= 0) {
            return false;
        }
        char buf[4096];
        std::size_t want = std::min(sizeof(buf), n - out->size());
        ssize_t r = ::recv(fd, buf, want, 0);
        if (r == 0) {
            return false; // peer closed
        }
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK) {
                continue;
            }
            return false;
        }
        out->append(buf, static_cast<std::size_t>(r));
    }
    return true;
}

bool
sendFrame(int fd, const std::string& payload, double deadlineMono)
{
    std::string frame;
    appendU32(&frame, static_cast<std::uint32_t>(payload.size()));
    frame += payload;
    return sendAllDeadline(fd, frame, deadlineMono);
}

bool
recvFrame(int fd, std::string* payload, double deadlineMono)
{
    std::string hdr;
    if (!recvExactDeadline(fd, &hdr, 4, deadlineMono)) {
        return false;
    }
    std::size_t pos = 0;
    std::uint32_t len = 0;
    readU32(hdr, &pos, &len);
    if (len > kMaxFrameBytes) {
        return false; // absurd frame: protocol error
    }
    return recvExactDeadline(fd, payload, len, deadlineMono);
}

int
connectWithTimeout(const std::string& host, int port, double timeoutSec,
                   std::string* err)
{
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    std::string portStr = std::to_string(port);
    int rc = ::getaddrinfo(host.c_str(), portStr.c_str(), &hints, &res);
    if (rc != 0 || res == nullptr) {
        if (err) {
            *err = "cannot resolve " + host + ": " + gai_strerror(rc);
        }
        return -1;
    }
    // Every queue socket is close-on-exec: a program exec'd by this
    // process must not hold a copy (a copied listener keeps the port
    // accepting after its owner closes it).
    int fd = ::socket(res->ai_family,
                      res->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      res->ai_protocol);
    if (fd < 0) {
        ::freeaddrinfo(res);
        if (err) {
            *err = std::string("socket(): ") + std::strerror(errno);
        }
        return -1;
    }
    rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
    if (rc != 0 && errno != EINPROGRESS) {
        if (err) {
            *err = std::string("connect(): ") + std::strerror(errno);
        }
        ::close(fd);
        return -1;
    }
    if (rc != 0) {
        struct pollfd pfd = {fd, POLLOUT, 0};
        rc = ::poll(&pfd, 1, static_cast<int>(timeoutSec * 1000.0) + 1);
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        if (rc <= 0 ||
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
            soerr != 0) {
            if (err) {
                *err = "connect to " + host + ":" + portStr +
                       (rc <= 0 ? " timed out"
                                : std::string(" failed: ") +
                                      std::strerror(soerr));
            }
            ::close(fd);
            return -1;
        }
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd; // left non-blocking; deadline I/O handles the rest
}

} // namespace

bool
parseQueueEndpoint(const std::string& endpoint, bool allowPortZero,
                   QueueEndpoint* out, std::string* err)
{
    QueueEndpoint ep;
    bool ok = endpoint.rfind("tcp:", 0) == 0;
    if (ok) {
        std::string rest = endpoint.substr(4);
        std::size_t colon = rest.rfind(':');
        std::string port = rest;
        ep.host = "127.0.0.1";
        if (colon != std::string::npos) {
            port = rest.substr(colon + 1);
            if (colon != 0) {
                ep.host = rest.substr(0, colon);
            }
        }
        ok = parsePort(port, &ep.port) && (allowPortZero || ep.port != 0);
    }
    if (!ok) {
        if (err != nullptr) {
            *err = "bad queue endpoint \"" + endpoint +
                   "\" (want tcp:HOST:PORT with PORT " +
                   (allowPortZero ? "0" : "1") + "..65535)";
        }
        return false;
    }
    *out = std::move(ep);
    return true;
}

// --- WorkQueue (client) ----------------------------------------------------

struct WorkQueue::Impl
{
    std::string host;
    int port = 0;
    double rpcTimeoutSec = 5.0;
    std::mutex mtx;
    int fd = -1;
    std::string spec;
    std::size_t total = 0;
    double retrySec = 0.2;

    void disconnect()
    {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }

    bool helloLocked(std::string* err)
    {
        std::string req;
        appendU32(&req, kQueueMagic);
        req.push_back(static_cast<char>(OpHello));
        appendStr(&req, "worker");
        double deadline = nowMonotonicSec() + rpcTimeoutSec;
        std::string resp;
        if (!sendFrame(fd, req, deadline) ||
            !recvFrame(fd, &resp, deadline)) {
            if (err) {
                *err = "HELLO RPC failed (coordinator unreachable?)";
            }
            return false;
        }
        std::size_t pos = 0;
        std::uint32_t magic = 0;
        std::uint64_t total64 = 0;
        std::uint32_t retryMs = 200;
        if (!readU32(resp, &pos, &magic) || magic != kQueueMagic ||
            pos >= resp.size() || resp[pos++] != StGranted ||
            !readStr(resp, &pos, &spec) ||
            !readU64(resp, &pos, &total64) ||
            !readU32(resp, &pos, &retryMs)) {
            if (err) {
                *err = "malformed HELLO response";
            }
            return false;
        }
        total = total64;
        retrySec = static_cast<double>(retryMs) / 1000.0;
        return true;
    }

    /** Connects (if needed) and runs one request/response exchange.
     *  One reconnect attempt on failure; false = coordinator lost. */
    bool rpcLocked(const std::string& req, std::string* resp)
    {
        for (int tries = 0; tries < 2; ++tries) {
            if (fd < 0) {
                std::string err;
                fd = connectWithTimeout(host, port, rpcTimeoutSec, &err);
                if (fd < 0) {
                    continue;
                }
                if (!helloLocked(nullptr)) {
                    disconnect();
                    continue;
                }
            }
            double deadline = nowMonotonicSec() + rpcTimeoutSec;
            if (sendFrame(fd, req, deadline) &&
                recvFrame(fd, resp, deadline)) {
                return true;
            }
            disconnect();
        }
        return false;
    }
};

WorkQueue::WorkQueue(std::string host, int port, double rpcTimeoutSec)
    : impl(std::make_unique<Impl>())
{
    impl->host = std::move(host);
    impl->port = port;
    impl->rpcTimeoutSec = rpcTimeoutSec;
}

WorkQueue::~WorkQueue()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    impl->disconnect();
}

bool
WorkQueue::connect(std::string* err)
{
    wire::installSigpipeIgnore();
    std::lock_guard<std::mutex> lock(impl->mtx);
    if (impl->fd >= 0) {
        return true;
    }
    impl->fd =
        connectWithTimeout(impl->host, impl->port, impl->rpcTimeoutSec, err);
    if (impl->fd < 0) {
        return false;
    }
    if (!impl->helloLocked(err)) {
        impl->disconnect();
        return false;
    }
    return true;
}

std::string
WorkQueue::specJson()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    return impl->spec;
}

std::size_t
WorkQueue::totalJobs()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    return impl->total;
}

ClaimOutcome
WorkQueue::claim(const std::string& worker, JobLease* out)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    std::string req;
    appendU32(&req, kQueueMagic);
    req.push_back(static_cast<char>(OpClaim));
    appendStr(&req, worker);
    std::string resp;
    if (!impl->rpcLocked(req, &resp)) {
        return ClaimOutcome::Lost;
    }
    std::size_t pos = 0;
    std::uint32_t magic = 0;
    if (!readU32(resp, &pos, &magic) || magic != kQueueMagic ||
        pos >= resp.size()) {
        return ClaimOutcome::Lost;
    }
    std::uint8_t status = static_cast<std::uint8_t>(resp[pos++]);
    if (status == StDrained) {
        return ClaimOutcome::Drained;
    }
    if (status == StNoWork) {
        std::uint32_t retryMs = 200;
        if (readU32(resp, &pos, &retryMs)) {
            impl->retrySec = static_cast<double>(retryMs) / 1000.0;
        }
        return ClaimOutcome::NoWork;
    }
    if (status != StGranted) {
        return ClaimOutcome::Lost;
    }
    std::uint64_t hash = 0;
    std::uint64_t index = 0;
    std::uint64_t token = 0;
    std::uint32_t attempt = 1;
    std::uint32_t ttlMs = 30'000;
    if (!readU64(resp, &pos, &hash) || !readU64(resp, &pos, &index) ||
        !readU64(resp, &pos, &token) || !readU32(resp, &pos, &attempt) ||
        !readU32(resp, &pos, &ttlMs)) {
        return ClaimOutcome::Lost;
    }
    out->hash = hash;
    out->index = index;
    out->token = token;
    out->attempt = attempt;
    out->ttlSec = static_cast<double>(ttlMs) / 1000.0;
    return ClaimOutcome::Granted;
}

bool
WorkQueue::renew(const JobLease& lease)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    std::string req;
    appendU32(&req, kQueueMagic);
    req.push_back(static_cast<char>(OpRenew));
    appendU64(&req, lease.token);
    std::string resp;
    if (!impl->rpcLocked(req, &resp)) {
        return false;
    }
    std::size_t pos = 0;
    std::uint32_t magic = 0;
    return readU32(resp, &pos, &magic) && magic == kQueueMagic &&
           pos < resp.size() && resp[pos] == StGranted;
}

PushOutcome
WorkQueue::push(const JobLease& lease, const ManifestEntry& entry)
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    std::string req;
    appendU32(&req, kQueueMagic);
    req.push_back(static_cast<char>(OpPush));
    appendU64(&req, lease.token);
    appendStr(&req, manifestEntryToJsonLine(entry));
    std::string resp;
    if (!impl->rpcLocked(req, &resp)) {
        return PushOutcome::Lost;
    }
    std::size_t pos = 0;
    std::uint32_t magic = 0;
    if (!readU32(resp, &pos, &magic) || magic != kQueueMagic ||
        pos >= resp.size()) {
        return PushOutcome::Lost;
    }
    std::uint8_t status = static_cast<std::uint8_t>(resp[pos]);
    if (status == StDuplicate) {
        return PushOutcome::Duplicate;
    }
    if (status == StGranted || status == StRequeued ||
        status == StUnknown) {
        return PushOutcome::Recorded;
    }
    return PushOutcome::Lost;
}

double
WorkQueue::noWorkRetrySec()
{
    std::lock_guard<std::mutex> lock(impl->mtx);
    return impl->retrySec;
}

// --- TcpQueueServer --------------------------------------------------------

struct TcpQueueServer::Impl
{
    int listenFd = -1;
    int boundPort = 0;
    Handlers handlers;

    struct Conn
    {
        int fd = -1;
        std::string inBuf;
        std::string outBuf;
    };
    std::vector<Conn> conns;

    void closeAll()
    {
        for (Conn& c : conns) {
            if (c.fd >= 0) {
                ::close(c.fd);
            }
        }
        conns.clear();
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
    }

    std::uint32_t retryMs() const
    {
        double sec = handlers.retrySec ? handlers.retrySec() : 0.2;
        return static_cast<std::uint32_t>(sec * 1000.0 + 0.5);
    }

    /**
     * Answers one request frame. Every field of the opcode is parsed,
     * and the frame must end right after the last one, before any
     * handler runs: a torn or padded frame is answered StUnknown.
     */
    std::string handleRequest(const std::string& req)
    {
        std::string resp;
        appendU32(&resp, kQueueMagic);
        std::size_t pos = 0;
        std::uint32_t magic = 0;
        std::uint8_t op = 0;
        std::string str; // HELLO/CLAIM worker name, PUSH entry JSON
        std::uint64_t token = 0;
        ManifestEntry entry;
        bool ok = readU32(req, &pos, &magic) && magic == kQueueMagic &&
                  pos < req.size();
        if (ok) {
            op = static_cast<std::uint8_t>(req[pos++]);
            switch (op) {
            case OpHello:
            case OpClaim:
                ok = readStr(req, &pos, &str);
                break;
            case OpRenew:
                ok = readU64(req, &pos, &token);
                break;
            case OpPush:
                ok = readU64(req, &pos, &token) &&
                     readStr(req, &pos, &str) &&
                     manifestEntryFromJsonLine(str, &entry);
                break;
            case OpStatus:
                break;
            default:
                ok = false;
                break;
            }
        }
        if (!ok || pos != req.size()) {
            resp.push_back(static_cast<char>(StUnknown));
            return resp;
        }
        switch (op) {
        case OpHello:
            resp.push_back(static_cast<char>(StGranted));
            appendStr(&resp, handlers.spec ? handlers.spec() : "");
            appendU64(&resp, handlers.total ? handlers.total() : 0);
            appendU32(&resp, retryMs());
            break;
        case OpClaim: {
            JobLease lease;
            ClaimOutcome co = handlers.claim ? handlers.claim(str, &lease)
                                             : ClaimOutcome::Drained;
            if (co == ClaimOutcome::Granted) {
                resp.push_back(static_cast<char>(StGranted));
                appendU64(&resp, lease.hash);
                appendU64(&resp, lease.index);
                appendU64(&resp, lease.token);
                appendU32(&resp, lease.attempt);
                appendU32(&resp, static_cast<std::uint32_t>(
                                     lease.ttlSec * 1000.0 + 0.5));
            } else if (co == ClaimOutcome::NoWork) {
                resp.push_back(static_cast<char>(StNoWork));
                appendU32(&resp, retryMs());
            } else {
                resp.push_back(static_cast<char>(StDrained));
            }
            break;
        }
        case OpRenew: {
            bool renewed = handlers.renew && handlers.renew(token);
            resp.push_back(
                static_cast<char>(renewed ? StGranted : StUnknown));
            break;
        }
        case OpPush: {
            LeaseTable::Push pr = handlers.push ? handlers.push(token, entry)
                                                : LeaseTable::Push::Unknown;
            QueueStatus st = StUnknown;
            if (pr == LeaseTable::Push::RecordedFinal) {
                st = StGranted;
            } else if (pr == LeaseTable::Push::Requeued) {
                st = StRequeued;
            } else if (pr == LeaseTable::Push::Duplicate) {
                st = StDuplicate;
            }
            resp.push_back(static_cast<char>(st));
            break;
        }
        default: // OpStatus
            resp.push_back(static_cast<char>(StGranted));
            appendStr(&resp, handlers.status ? handlers.status() : "{}");
            break;
        }
        return resp;
    }

    /** Consumes complete frames from @p c.inBuf, queueing responses. */
    void drainFrames(Conn& c)
    {
        for (;;) {
            if (c.inBuf.size() < 4) {
                return;
            }
            std::size_t pos = 0;
            std::uint32_t len = 0;
            readU32(c.inBuf, &pos, &len);
            if (len > kMaxFrameBytes) {
                ::close(c.fd);
                c.fd = -1;
                return;
            }
            if (c.inBuf.size() < 4 + len) {
                return;
            }
            std::string req = c.inBuf.substr(4, len);
            c.inBuf.erase(0, 4 + len);
            std::string resp = handleRequest(req);
            appendU32(&c.outBuf, static_cast<std::uint32_t>(resp.size()));
            c.outBuf += resp;
        }
    }
};

TcpQueueServer::TcpQueueServer() : impl(std::make_unique<Impl>()) {}

TcpQueueServer::~TcpQueueServer()
{
    impl->closeAll();
}

bool
TcpQueueServer::listen(const std::string& host, int port, Handlers handlers,
                       std::string* err)
{
    if (port < 0 || port > 65535) {
        *err = "listen port out of range: " + std::to_string(port);
        return false;
    }
    wire::installSigpipeIgnore();
    impl->handlers = std::move(handlers);
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        *err = std::string("socket(): ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (host.empty() || host == "0.0.0.0") {
        addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        *err = "listen address must be a numeric IPv4 address: " + host;
        ::close(fd);
        return false;
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        *err = "bind(" + host + ":" + std::to_string(port) +
               "): " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    if (::listen(fd, 64) != 0) {
        *err = std::string("listen(): ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
    impl->boundPort = ntohs(addr.sin_port);
    impl->listenFd = fd;
    return true;
}

int
TcpQueueServer::port() const
{
    return impl->boundPort;
}

void
TcpQueueServer::poll(double timeoutSec)
{
    if (impl->listenFd < 0) {
        return;
    }
    // Compact closed connections.
    impl->conns.erase(std::remove_if(impl->conns.begin(),
                                     impl->conns.end(),
                                     [](const Impl::Conn& c) {
                                         return c.fd < 0;
                                     }),
                      impl->conns.end());

    std::vector<struct pollfd> pfds;
    pfds.push_back({impl->listenFd, POLLIN, 0});
    for (const Impl::Conn& c : impl->conns) {
        short ev = POLLIN;
        if (!c.outBuf.empty()) {
            ev |= POLLOUT;
        }
        pfds.push_back({c.fd, ev, 0});
    }
    int rc = ::poll(pfds.data(), pfds.size(),
                    static_cast<int>(timeoutSec * 1000.0));
    if (rc <= 0) {
        return;
    }
    if (pfds[0].revents & POLLIN) {
        for (;;) {
            int cfd = ::accept4(impl->listenFd, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (cfd < 0) {
                break;
            }
            int one = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            Impl::Conn c;
            c.fd = cfd;
            impl->conns.push_back(std::move(c));
        }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
        Impl::Conn& c = impl->conns[i - 1];
        if (c.fd < 0 || pfds[i].revents == 0) {
            continue;
        }
        if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
            char buf[8192];
            for (;;) {
                ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    c.inBuf.append(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                ::close(c.fd); // peer gone (worker death is normal)
                c.fd = -1;
                break;
            }
            if (c.fd >= 0) {
                impl->drainFrames(c);
            }
        }
        if (c.fd >= 0 && !c.outBuf.empty()) {
            ssize_t w = ::send(c.fd, c.outBuf.data(), c.outBuf.size(),
                               MSG_NOSIGNAL);
            if (w > 0) {
                c.outBuf.erase(0, static_cast<std::size_t>(w));
            } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR) {
                ::close(c.fd);
                c.fd = -1;
            }
        }
    }
}

void
TcpQueueServer::close()
{
    impl->closeAll();
}

void
closeInheritedListeners()
{
    DIR* dir = ::opendir("/proc/self/fd");
    if (dir == nullptr) {
        return;
    }
    std::vector<int> listeners;
    while (const struct dirent* ent = ::readdir(dir)) {
        int fd = std::atoi(ent->d_name); // 0 for "." and ".."
        int on = 0;
        socklen_t len = sizeof(on);
        if (fd > 2 &&
            ::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &on, &len) == 0 &&
            on != 0) {
            listeners.push_back(fd);
        }
    }
    ::closedir(dir);
    for (int fd : listeners) {
        ::close(fd);
    }
}

bool
queryQueueStatus(const std::string& endpoint, double timeoutSec,
                 std::string* statusJson, std::string* err)
{
    QueueEndpoint ep;
    if (!parseQueueEndpoint(endpoint, false, &ep, err)) {
        return false;
    }
    wire::installSigpipeIgnore();
    int fd = connectWithTimeout(ep.host, ep.port, timeoutSec, err);
    if (fd < 0) {
        return false;
    }
    std::string req;
    appendU32(&req, kQueueMagic);
    req.push_back(static_cast<char>(OpStatus));
    double deadline = nowMonotonicSec() + timeoutSec;
    std::string resp;
    bool ok = sendFrame(fd, req, deadline) &&
              recvFrame(fd, &resp, deadline);
    ::close(fd);
    if (!ok) {
        if (err != nullptr) {
            *err = "STATUS RPC failed (coordinator unreachable?)";
        }
        return false;
    }
    std::size_t pos = 0;
    std::uint32_t magic = 0;
    if (!readU32(resp, &pos, &magic) || magic != kQueueMagic ||
        pos >= resp.size() ||
        static_cast<std::uint8_t>(resp[pos++]) != StGranted ||
        !readStr(resp, &pos, statusJson)) {
        if (err != nullptr) {
            *err = "malformed STATUS response";
        }
        return false;
    }
    return true;
}

std::unique_ptr<WorkQueue>
openWorkQueue(const std::string& endpoint, double rpcTimeoutSec,
              std::string* err)
{
    QueueEndpoint ep;
    if (!parseQueueEndpoint(endpoint, false, &ep, err)) {
        return nullptr;
    }
    auto q = std::make_unique<WorkQueue>(ep.host, ep.port, rpcTimeoutSec);
    if (!q->connect(err)) {
        return nullptr;
    }
    return q;
}

} // namespace udp
