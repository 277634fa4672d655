// Fixture: blocking primitive reachable from a node-loop entry point.
// Automaton::OnFrame runs on the node's thread, which is also the event
// loop for the node's mailbox and sockets; its DrainBacklog() path
// parks on an unbounded CondVar::Wait, stalling every connection the
// node owns. Expected: exactly one check trips — reactor-blocking.

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
  void Wait(Mutex& mutex);
};

class IEndpoint {};

class Automaton {
 public:
  virtual ~Automaton() = default;
  virtual void OnFrame(int from, int frame, IEndpoint& endpoint) = 0;
};

class Server final : public Automaton {
 public:
  void OnFrame(int from, int frame, IEndpoint& endpoint) override {
    DrainBacklog();
  }

 private:
  void DrainBacklog() {
    MutexLock guard(mutex_);
    while (!has_data_) {
      ready_.Wait(mutex_);
    }
    has_data_ = false;
  }

  Mutex mutex_;
  CondVar ready_;
  bool has_data_ = false;
};

}  // namespace sbft
