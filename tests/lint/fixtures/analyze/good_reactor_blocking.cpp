// Fixture: node-loop entry points that never block. OnFrame and the
// task posted to the node queue work under a plain mutex (bounded
// critical section) instead of waiting for it; the only wait primitive
// in the file is the bounded WaitFor, and it runs on a pacing thread,
// not a node thread. Expected: clean.

namespace sbft {

class Mutex {
 public:
  void lock();
  void unlock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mutex);
  ~MutexLock();
};

class CondVar {
 public:
  template <class Duration>
  void WaitFor(Mutex& mutex, Duration timeout);
  void NotifyAll();
};

class IEndpoint {};

class Automaton {
 public:
  virtual ~Automaton() = default;
  virtual void OnFrame(int from, int frame, IEndpoint& endpoint) = 0;
};

class Cluster {
 public:
  template <class Task>
  void PostToNode(int node, Task task);
};

class Server final : public Automaton {
 public:
  void OnFrame(int from, int frame, IEndpoint& endpoint) override {
    Enqueue();
  }

  void Kick(Cluster& cluster, int node) {
    cluster.PostToNode(node, [this] { Enqueue(); });
  }

  // Runs on the pacing thread, not a node thread: the bounded wait
  // here is fine and must not be attributed to the entry points above.
  void PacerTick(int budget_ms) {
    MutexLock guard(mutex_);
    ready_.WaitFor(mutex_, budget_ms);
  }

 private:
  void Enqueue() {
    MutexLock guard(mutex_);
    pending_ += 1;
    ready_.NotifyAll();
  }

  Mutex mutex_;
  CondVar ready_;
  long pending_ = 0;
};

}  // namespace sbft
