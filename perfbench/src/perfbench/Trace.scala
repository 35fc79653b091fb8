package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One traced call into a layer. `name` is `<layer>.<call>`; `parent` is
  * the enclosing span's id (-1 for a repetition's root) and `run` the
  * repetition it belongs to. GC time and count are deltas over the span.
  */
final case class Span(id: Int, name: String, parent: Int, run: Int,
                      startNs: Long, endNs: Long, gcMs: Long, gcCount: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def seconds: Double = (endNs - startNs) / 1e9
}

object Gc {
  private val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Cumulative (collection ms, collection count) over all collectors. */
  def totals: (Long, Long) =
    (beans.iterator.map(_.getCollectionTime).sum, beans.iterator.map(_.getCollectionCount).sum)
}

/** Tracks the largest heap occupancy seen right after a collection while
  * armed, from the collectors' notifications.
  */
final class LiveHeapMonitor {
  @volatile private var armed = false
  @volatile private var peak = 0L
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, hb: AnyRef): Unit =
      if (armed && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.values.asScala.iterator.map(_.getUsed).sum
        synchronized { if (used > peak) peak = used }
      }
  }
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _ =>
  }

  /** Runs `body` armed and collects once after it while its result is
    * still reachable; the pools' usage after that collection counts too, so
    * a repetition without collections still reports its retained heap. The
    * collection also leaves the next repetition a heap without earlier
    * garbage.
    */
  def measure[A](body: => A): (A, Long) = {
    synchronized { peak = 0L }
    armed = true
    try {
      val out = body
      System.gc()
      val retained = heapPools.iterator.map(p => Option(p.getCollectionUsage).map(_.getUsed).getOrElse(0L)).sum
      (out, synchronized(math.max(peak, retained)))
    } finally armed = false
  }
}

/** In-memory span recorder. When disabled, `span` only runs its body. */
final class Tracer(var enabled: Boolean, sc: SparkContext) {
  import Tracer.SpanProperty

  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var run: Int = 0

  def spans: Seq[Span] = recorded.toSeq

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack ::= id
      sc.setLocalProperty(SpanProperty, id.toString)
      val (gcMs0, gcN0) = Gc.totals
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val (gcMs1, gcN1) = Gc.totals
        stack = stack.tail
        sc.setLocalProperty(SpanProperty, stack.headOption.map(_.toString).orNull)
        recorded += Span(id, name, parent, run, t0, t1, gcMs1 - gcMs0, gcN1 - gcN0)
      }
    }

  /** Self time of each layer in run `r`: span time minus the time its
    * child spans cover.
    */
  def selfSeconds(r: Int): Map[String, Double] = {
    val inRun = recorded.filter(_.run == r)
    val childNs = inRun.groupBy(_.parent).map { case (p, cs) => p -> cs.map(s => s.endNs - s.startNs).sum }
    inRun.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => (s.endNs - s.startNs - childNs.getOrElse(s.id, 0L)) / 1e9).sum
    }
  }

  def toJson: String = Json.arr(recorded.toSeq.map { s =>
    Json.obj("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "run" -> s.run,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "gc_ms" -> s.gcMs, "gc_count" -> s.gcCount)
  })
}

object Tracer {
  val SpanProperty = "perfbench.span"
}

/** Spark work per span: jobs submitted while a span is innermost carry its
  * id as a local property, and every stage and task of the job is charged
  * to that span.
  */
final class SparkCounters extends SparkListener {
  final class Acc {
    var jobs = 0; var stages = 0; var tasks = 0
    var jobMs = 0L; var taskMs = 0L
    var shuffleRead = 0L; var shuffleWrite = 0L; var spill = 0L
  }

  private val bySpan = mutable.HashMap.empty[Int, Acc]
  private val stageSpan = mutable.HashMap.empty[Int, Int]
  private val jobStart = mutable.HashMap.empty[Int, (Int, Long)]

  private def acc(span: Int): Acc = bySpan.getOrElseUpdate(span, new Acc)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProperty)))
      .map(_.toInt).getOrElse(-1)
    jobStart(e.jobId) = (span, e.time)
    e.stageIds.foreach(stageSpan(_) = span)
    acc(span).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (span, t) => acc(span).jobMs += e.time - t }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    acc(stageSpan.getOrElse(e.stageInfo.stageId, -1)).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val a = acc(stageSpan.getOrElse(e.stageId, -1))
    a.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      a.taskMs += m.executorRunTime
      a.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      a.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      a.spill += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  /** Counters summed over the given spans (after the listener bus drained). */
  def over(spans: Iterable[Int]): Acc = synchronized {
    val out = new Acc
    for (s <- spans; a <- bySpan.get(s)) {
      out.jobs += a.jobs; out.stages += a.stages; out.tasks += a.tasks
      out.jobMs += a.jobMs; out.taskMs += a.taskMs
      out.shuffleRead += a.shuffleRead; out.shuffleWrite += a.shuffleWrite; out.spill += a.spill
    }
    out
  }
}
