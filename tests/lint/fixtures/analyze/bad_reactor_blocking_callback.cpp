// Fixture: a completion callback calls the blocking RegisterCluster::
// Write. The callback runs on the client node's thread, and Write then
// waits for an operation that only that same thread can complete: the
// node stalls its mailbox and sockets until the op times out.
// Expected: exactly one check trips — reactor-blocking.

namespace sbft {

template <class T>
class Future {
 public:
  template <class Duration>
  bool wait_for(Duration timeout);
  T get();
};

template <class T>
class Promise {
 public:
  Future<T> get_future();
  void set_value(T value);
};

class RegisterCluster {
 public:
  template <class Callback>
  void AsyncWrite(int client, int value, Callback callback);

  int Write(int client, int value) {
    Promise<int> done;
    Future<int> future = done.get_future();
    AsyncWrite(client, value,
               [&done](int outcome) { done.set_value(outcome); });
    if (!future.wait_for(op_timeout_ms_)) return 0;
    return future.get();
  }

 private:
  int op_timeout_ms_ = 10000;
};

class Mirror {
 public:
  // Copies every completed write to a second register — by calling the
  // synchronous API from inside the first write's completion callback.
  void Start(int client, int value) {
    cluster_.AsyncWrite(client, value, [this, client, value](int) {
      cluster_.Write(client + 1, value);
    });
  }

 private:
  RegisterCluster cluster_;
};

}  // namespace sbft
